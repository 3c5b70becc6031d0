//! Live-session API behaviour: lifecycle, conditional schema fetches,
//! version diffs, validation, durable restart, and response-path fault
//! injection.

use pg_serve::ServerConfig;
use std::io::Write;
use std::net::TcpStream;

mod util;
use util::{edge_line, node_line, scratch_dir, TestServer};

fn err_code(resp: &pg_serve::ClientResponse) -> String {
    resp.json()
        .ok()
        .and_then(|v| {
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str())
                .map(str::to_owned)
        })
        .unwrap_or_default()
}

#[test]
fn session_lifecycle_create_conflict_list_delete() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();

    let resp = client.post("/sessions", br#"{"name":"alpha"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("alpha"));
    assert_eq!(v.get("durable"), Some(&serde::Value::Bool(false)));
    assert_eq!(v.get("batches"), Some(&serde::Value::U64(0)));

    let resp = client.post("/sessions", br#"{"name":"alpha"}"#).unwrap();
    assert_eq!(resp.status, 409);
    assert_eq!(err_code(&resp), "session_exists");

    let resp = client
        .post("/sessions", br#"{"name":"bad name!"}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "invalid_name");

    let resp = client
        .post("/sessions", br#"{"name":"b","theta":2.5}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "invalid_spec");

    let resp = client.get("/sessions").unwrap();
    let names: Vec<String> = resp
        .json()
        .unwrap()
        .get("sessions")
        .and_then(|s| s.as_array().map(<[serde::Value]>::to_vec))
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()).map(str::to_owned))
        .collect();
    assert_eq!(names, ["alpha"]);

    assert_eq!(client.delete("/sessions/alpha").unwrap().status, 204);
    assert_eq!(client.delete("/sessions/alpha").unwrap().status, 404);
    assert_eq!(client.get("/sessions/alpha").unwrap().status, 404);
}

#[test]
fn schema_etag_enables_304_roundtrips() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    client.post("/sessions", br#"{"name":"etag"}"#).unwrap();
    let body = format!(
        "{}\n{}\n{}",
        node_line(1, "Person", r#""age":{"Int":30}"#),
        node_line(2, "Person", r#""age":{"Int":41}"#),
        edge_line(10, 1, 2, "KNOWS"),
    );
    let resp = client
        .post("/sessions/etag/ingest", body.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let ingest = resp.json().unwrap();
    assert_eq!(ingest.get("changed"), Some(&serde::Value::Bool(true)));
    let hash = ingest
        .get("hash")
        .and_then(|h| h.as_str())
        .expect("hash in ingest response")
        .to_owned();

    let resp = client.get("/sessions/etag/schema").unwrap();
    assert_eq!(resp.status, 200);
    let etag = resp.header("etag").expect("ETag header").to_owned();
    assert!(etag.contains(&hash), "ETag {etag} should embed hash {hash}");
    let version = resp.header("x-schema-version").unwrap().to_owned();
    assert!(resp.text().contains("Person"), "{}", resp.text());

    // Same tag → 304 with no body; a stale tag → fresh 200.
    let resp = client
        .get_with_headers("/sessions/etag/schema", &[("If-None-Match", &etag)])
        .unwrap();
    assert_eq!(resp.status, 304);
    assert!(resp.body.is_empty());
    assert_eq!(resp.header("etag"), Some(etag.as_str()));

    let resp = client
        .get_with_headers("/sessions/etag/schema", &[("If-None-Match", "\"old\"")])
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-schema-version"), Some(version.as_str()));

    // The tag is format-qualified: a PG-Schema render is different
    // content, so the JSON tag must not suppress it.
    let resp = client
        .get_with_headers(
            "/sessions/etag/schema?format=loose",
            &[("If-None-Match", &etag)],
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("GRAPH TYPE"), "{}", resp.text());

    let resp = client.get("/sessions/etag/schema?format=nope").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "unknown_format");
}

#[test]
fn diff_covers_missing_bad_evicted_and_live_versions() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    client
        .post("/sessions", br#"{"name":"d","history_retain":2}"#)
        .unwrap();

    // Version 1 is the empty schema at creation; three schema-changing
    // batches advance to version 4, and retain 2 keeps only {3, 4}.
    for (i, label) in ["A", "B", "C"].iter().enumerate() {
        let resp = client
            .post(
                "/sessions/d/ingest",
                node_line(i as u64 + 1, label, "").as_bytes(),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(
            resp.json().unwrap().get("changed"),
            Some(&serde::Value::Bool(true)),
            "batch {i} should extend the schema"
        );
    }

    let resp = client.get("/sessions/d/diff").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "missing_from");

    let resp = client.get("/sessions/d/diff?from=x").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "bad_from");

    let resp = client.get("/sessions/d/diff?from=99").unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(err_code(&resp), "unknown_version");

    let resp = client.get("/sessions/d/diff?from=1").unwrap();
    assert_eq!(resp.status, 410, "{}", resp.text());
    assert_eq!(err_code(&resp), "version_evicted");

    let resp = client.get("/sessions/d/diff?from=3").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(v.get("from"), Some(&serde::Value::U64(3)));
    assert_eq!(v.get("to"), Some(&serde::Value::U64(4)));
    assert_eq!(v.get("identical"), Some(&serde::Value::Bool(false)));
    assert_eq!(v.get("pure_extension"), Some(&serde::Value::Bool(true)));

    let resp = client.get("/sessions/d/diff?from=4").unwrap();
    let v = resp.json().unwrap();
    assert_eq!(v.get("identical"), Some(&serde::Value::Bool(true)));
}

#[test]
fn validate_reports_modes_violations_and_quarantine() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    client.post("/sessions", br#"{"name":"v"}"#).unwrap();
    let body = format!(
        "{}\n{}",
        node_line(1, "Person", r#""age":{"Int":30}"#),
        node_line(2, "Person", r#""age":{"Int":41}"#),
    );
    client.post("/sessions/v/ingest", body.as_bytes()).unwrap();

    // A conforming subgraph passes LOOSE.
    let resp = client
        .post(
            "/sessions/v/validate",
            node_line(7, "Person", r#""age":{"Int":9}"#).as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(v.get("valid"), Some(&serde::Value::Bool(true)));
    assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("loose"));
    assert_eq!(v.get("nodes_checked"), Some(&serde::Value::U64(1)));

    // An unseen label is a violation; a dirty line is quarantined, not
    // a request failure.
    let body = format!("{}\nnot json at all", node_line(8, "Martian", ""));
    let resp = client
        .post("/sessions/v/validate?mode=strict", body.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(v.get("valid"), Some(&serde::Value::Bool(false)));
    assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("strict"));
    let count = match v.get("violation_count") {
        Some(serde::Value::U64(n)) => *n,
        other => panic!("violation_count: {other:?}"),
    };
    assert!(count >= 1, "{v:?}");
    assert_eq!(v.get("quarantined"), Some(&serde::Value::U64(1)));

    let resp = client
        .post("/sessions/v/validate?mode=psychic", b"")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "unknown_mode");
}

#[test]
fn graceful_stop_persists_and_restart_resumes_bit_identically() {
    let dir = scratch_dir("resume");
    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        // Large cadence: only the shutdown checkpoint may persist, so
        // this test proves the drain path, not the cadence path.
        checkpoint_every: 1000,
        ..ServerConfig::default()
    };
    let server = TestServer::start(config.clone());
    let mut client = server.client();
    let resp = client.post("/sessions", br#"{"name":"durable"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    assert_eq!(
        resp.json().unwrap().get("durable"),
        Some(&serde::Value::Bool(true))
    );
    for i in 0..3u64 {
        let body = format!(
            "{}\n{}",
            node_line(i * 2 + 1, "N", r#""w":{"Int":5}"#),
            node_line(i * 2 + 2, "M", ""),
        );
        let resp = client
            .post("/sessions/durable/ingest", body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    let before = client.get("/sessions/durable").unwrap().json().unwrap();
    drop(client);
    let summary = server.stop();
    assert!(
        summary.persist_failures.is_empty(),
        "{:?}",
        summary.persist_failures
    );
    assert_eq!(summary.sessions_persisted, 1);

    // A fresh process (new server, same state dir) resumes the session
    // with the same batch numbering and content hash.
    let server = TestServer::start(config);
    let mut client = server.client();
    let after = client.get("/sessions/durable").unwrap().json().unwrap();
    for field in ["batches", "nodes", "edges", "version", "hash"] {
        assert_eq!(
            after.get(field),
            before.get(field),
            "{field} drifted across restart"
        );
    }
    // And it is live, not a read-only fossil.
    let resp = client
        .post(
            "/sessions/durable/ingest",
            node_line(100, "N", r#""w":{"Int":1}"#).as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tests/fixtures/state_v1` is the state dir of a build that still had
/// the pattern memo, stopped after three ingests into a session created
/// with `{"name":"legacy","memoize":true}`: the `session.json`'s spec
/// carries the key and the v1 checkpoint carries the memo's content.
/// Neither stops the restart, which serves the ETag that build last
/// served; what the session persists next is one v3 frame whose spec
/// lacks the key, and the legacy file is read, never rewritten.
#[test]
fn state_dir_of_a_memoizing_v1_build_resumes_with_the_same_etag() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/state_v1");
    let dir = scratch_dir("state-v1");
    let session = dir.join("legacy");
    std::fs::create_dir_all(session.join("ckpt")).unwrap();
    for file in ["session.json", "ckpt/ckpt-00000004.pghive"] {
        std::fs::copy(fixture.join("legacy").join(file), session.join(file)).unwrap();
    }
    let sidecar = std::fs::read_to_string(session.join("session.json")).unwrap();
    assert!(sidecar.contains(r#""memoize":true"#));

    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = TestServer::start(config);
    let mut client = server.client();
    let resp = client.get("/sessions/legacy/schema").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("etag"), Some("\"json-v4-bd9b40284fc18f8b\""));
    let summary = client.get("/sessions/legacy").unwrap().json().unwrap();
    assert_eq!(summary.get("batches"), Some(&serde::Value::U64(3)));
    assert!(summary.get("spec").unwrap().get("memoize").is_none());

    let resp = client
        .post(
            "/sessions/legacy/ingest",
            node_line(500, "Person0", r#""rank":{"Int":1}"#).as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    drop(client);
    assert!(server.stop().persist_failures.is_empty());
    let newest = std::fs::read(session.join("ckpt/ckpt-00000005.pghive")).unwrap();
    assert!(newest.starts_with(b"PGHIVE-CKPT v3 "));
    let frame = pg_hive::checkpoint::decode(&newest).unwrap();
    let spec = frame.host.as_ref().and_then(|h| h.get("spec")).unwrap();
    assert!(spec.get("seed").is_some() && spec.get("memoize").is_none());
    assert_eq!(
        std::fs::read_to_string(session.join("session.json")).unwrap(),
        sidecar
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The three fixed ingests behind `tests/fixtures/state_v2`: typed and
/// escaped property values, multi-label, unlabeled and escaped-label
/// nodes, edges, and a quarantined line.
fn state_v2_bodies() -> [String; 3] {
    [
        format!(
            "{}\n{}\n{}\nnot json",
            node_line(
                1,
                "Person",
                r#""age":{"Int":-7},"name":{"Str":"Ann \"A\" é\n"}"#
            ),
            node_line(2, "Person", r#""age":{"Int":41},"score":{"Float":0.5}"#),
            r#"{"kind":"node","id":3,"labels":[],"props":{"flag":{"Bool":true}}}"#,
        ),
        format!(
            "{}\n{}\n{}",
            r#"{"kind":"node","id":4,"labels":["Org","Place"],"props":{"since":{"Float":2.0}}}"#,
            edge_line(10, 1, 2, "KNOWS"),
            edge_line(11, 2, 4, "WORKS_AT"),
        ),
        format!(
            "{}\n{}\n{}",
            node_line(5, "Person", r#""age":{"Int":9007199254740993}"#),
            r#"{"kind":"node","id":6,"labels":["Émigré\t\"Q\"\u0001"],"props":{}}"#,
            edge_line(12, 5, 6, "KNOWS"),
        ),
    ]
}

/// The name of the newest checkpoint file in `ckpt`.
fn newest_checkpoint(ckpt: &std::path::Path) -> std::ffi::OsString {
    let mut names: Vec<_> = std::fs::read_dir(ckpt)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n.to_string_lossy().starts_with("ckpt-"))
        .collect();
    names.sort();
    names.pop().expect("a checkpoint")
}

/// `tests/fixtures/state_v2/current` is what a build before the
/// sink-driven JSON writer left in the state dir of a session created as
/// `{"name":"current"}` under `checkpoint_every: 2`, after the three
/// [`state_v2_bodies`] ingests and a graceful stop: its `session.json`
/// and newest (v2) checkpoint. A restart serves the ETag that build
/// served, over a body that hashes like it.
#[test]
fn state_dir_of_a_v2_build_resumes_with_the_same_etag() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/state_v2/current");
    let dir = scratch_dir("state-v2");
    let session = dir.join("current");
    std::fs::create_dir_all(session.join("ckpt")).unwrap();
    for file in ["session.json", "ckpt/ckpt-00000002.pghive"] {
        std::fs::copy(fixture.join(file), session.join(file)).unwrap();
    }
    let server = TestServer::start(ServerConfig {
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = server.client();
    let resp = client.get("/sessions/current/schema").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("etag"), Some(STATE_V2_ETAG));
    let schema: pg_model::SchemaGraph = serde_json::from_str(&resp.text()).unwrap();
    assert!(STATE_V2_ETAG.ends_with(&format!("{}\"", pg_hive::content_hash_hex(&schema))));
    let summary = client.get("/sessions/current").unwrap().json().unwrap();
    assert_eq!(summary.get("batches"), Some(&serde::Value::U64(3)));
    assert_eq!(
        summary.get("quarantined_total"),
        Some(&serde::Value::U64(1))
    );
    drop(client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ETag the build that wrote `state_v2` served for its session.
const STATE_V2_ETAG: &str = "\"json-v4-d630686575326632\"";

/// `tests/fixtures/state_v3/current` is the newest frame the same
/// session — the one `state_v2` holds — leaves under this build, and a
/// fresh run must write it byte for byte. No `session.json` is written:
/// the frame is the v2 checkpoint's payload with the `session.json`'s aux
/// state and host fields appended to it.
#[test]
fn durable_session_writes_the_state_v3_fixture_bytes() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = scratch_dir("state-v3");
    let server = TestServer::start(ServerConfig {
        state_dir: Some(dir.clone()),
        checkpoint_every: 2,
        ..ServerConfig::default()
    });
    let mut client = server.client();
    let resp = client.post("/sessions", br#"{"name":"current"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    for body in state_v2_bodies() {
        let resp = client
            .post("/sessions/current/ingest", body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    drop(client);
    assert!(server.stop().persist_failures.is_empty());

    let session = dir.join("current");
    assert!(!session.join("session.json").exists());
    let name = newest_checkpoint(&session.join("ckpt"));
    let v3 = fixtures.join("state_v3/current/ckpt");
    assert_eq!(name, newest_checkpoint(&v3));
    let wrote = std::fs::read(session.join("ckpt").join(&name)).unwrap();
    assert!(
        wrote == std::fs::read(v3.join(&name)).unwrap(),
        "the frame differs from the fixture"
    );

    // Beside the header, the frame is the v2 checkpoint and the
    // session.json that state_v2 holds for the same session.
    let v2 = fixtures.join("state_v2/current");
    let payload = |bytes: &[u8]| {
        let text = String::from_utf8(bytes.to_vec()).unwrap();
        text.split_once('\n').unwrap().1.to_owned()
    };
    let old = payload(&std::fs::read(v2.join("ckpt").join(&name)).unwrap());
    let new = payload(&wrote);
    let tail = new
        .strip_prefix(old.strip_suffix('}').unwrap())
        .expect("the v3 payload extends the v2 payload");
    let tail: serde::Value = serde_json::from_str(&format!("{{{}", &tail[1..])).unwrap();
    let serde::Value::Object(mut sidecar) =
        serde_json::from_str(&std::fs::read_to_string(v2.join("session.json")).unwrap()).unwrap()
    else {
        panic!("session.json holds an object")
    };
    let at = sidecar.iter().position(|(k, _)| k == "aux").unwrap();
    let aux = sidecar.remove(at).1;
    let want = serde::Value::Object(vec![
        ("aux".to_owned(), aux),
        ("host".to_owned(), serde::Value::Object(sidecar)),
    ]);
    assert_eq!(tail, want);
    let _ = std::fs::remove_dir_all(&dir);
}

fn raw_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The ingest is applied and answered, then the client closes with the
/// response still unread in its receive buffer — the kernel turns that
/// close into an RST, so the reactor's connection is torn by a reset
/// and the client never learns the outcome.
#[test]
fn response_write_fault_does_not_poison_the_session() {
    let server = TestServer::start(ServerConfig::default());
    let resp = server
        .client()
        .post("/sessions", br#"{"name":"frail"}"#)
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let live = server.registry.get("frail").expect("session registered");

    let batch = node_line(1, "A", r#""k":{"Int":1}"#);
    let mut torn = TcpStream::connect(server.addr).unwrap();
    torn.write_all(&raw_post("/sessions/frail/ingest", &batch))
        .unwrap();
    // `peek` returns once response bytes have arrived and leaves them
    // unread.
    assert!(torn.peek(&mut [0u8; 1]).unwrap() > 0);
    drop(torn);
    assert_eq!(live.handle().batches_processed(), 1);

    // The session itself is intact: the batch landed exactly once and
    // the next request on a healthy connection behaves normally.
    let resp = server
        .client()
        .post("/sessions/frail/ingest", node_line(2, "B", "").as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(live.handle().batches_processed(), 2);
    assert!(live.handle().broken().is_none());
}

/// A `"mode":"stream"` session runs the whole live-session surface on
/// bounded-memory accumulators: ingest works, the spec round-trips in
/// the summary, and `/metrics` exposes the per-session memory gauges
/// the operator uses to confirm the bound is holding.
#[test]
fn stream_mode_session_is_bounded_and_observable() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();

    let resp = client
        .post("/sessions", br#"{"name":"sk","mode":"stream"}"#)
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());

    // An unknown accumulator mode is an invalid spec, not a default.
    let resp = client
        .post("/sessions", br#"{"name":"bad","mode":"approx"}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "invalid_spec");

    let body = format!(
        "{}\n{}\n{}",
        node_line(1, "Person", r#""age":{"Int":30}"#),
        node_line(2, "Person", r#""age":{"Int":41}"#),
        edge_line(10, 1, 2, "KNOWS"),
    );
    let resp = client.post("/sessions/sk/ingest", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    let resp = client.get("/sessions/sk/schema").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("Person"), "{}", resp.text());

    // The mode survives in the summary's spec echo.
    let resp = client.get("/sessions/sk").unwrap();
    let v = resp.json().unwrap();
    let mode = v
        .get("spec")
        .and_then(|s| s.get("mode"))
        .and_then(|m| m.as_str())
        .map(str::to_owned);
    assert_eq!(mode.as_deref(), Some("stream"));

    // The memory gauge is present and live.
    let metrics = client.get("/metrics").unwrap().text();
    let gauge = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name}{{session=\"sk\"}}")))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} gauge missing for session sk:\n{metrics}"))
    };
    assert!(gauge("pg_serve_session_accum_bytes") > 0);
}
