//! `POST /sessions/{id}/merge`: folding per-shard discovery states into
//! a live session — happy path, input validation, ETag movement, durable
//! restart of merged state, and plain served shards converging to the
//! single-node hash.

use pg_hive::handle::StreamIndex;
use pg_hive::{content_hash_hex, merge_states, HiveConfig, PgHive, ShardState, StreamConfig};
use pg_model::{LabelSet, Node, PropertyGraph, SchemaGraph};
use pg_serve::{ServerConfig, SessionSpec};
use pg_store::jsonl::Element;
use pg_store::{read_jsonl_elements, ErrorPolicy};

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

/// A shard state discovered offline, exactly as `pg-hive discover
/// --state-out` would produce: `n` Org nodes with a mandatory `url`.
fn org_shard_state(n: u64) -> String {
    labeled_shard_state("Org", n)
}

/// A shard state of `n` nodes labeled `label` with a mandatory `url`.
fn labeled_shard_state(label: &str, n: u64) -> String {
    let mut g = PropertyGraph::new();
    for i in 0..n {
        g.add_node(Node::new(i, LabelSet::single(label)).with_prop("url", i as i64))
            .unwrap();
    }
    let result = PgHive::new(HiveConfig::default()).discover_graph(&g);
    serde_json::to_string(&ShardState::from_state(&result.state)).unwrap()
}

#[test]
fn merge_folds_shard_state_and_moves_the_etag() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    client.post("/sessions", br#"{"name":"m"}"#).unwrap();
    let resp = client
        .post(
            "/sessions/m/ingest",
            node_line(1, "Person", r#""age":{"Int":30}"#).as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    let before = client.get("/sessions/m/schema").unwrap();
    let etag_before = before.header("etag").expect("ETag header").to_owned();

    let resp = client
        .post("/sessions/m/merge", org_shard_state(4).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(v.get("input").and_then(|i| i.as_str()), Some("shard_state"));
    assert_eq!(v.get("changed"), Some(&serde::Value::Bool(true)));
    assert_eq!(v.get("node_types"), Some(&serde::Value::U64(2)));

    // The merged type is served, and the ETag moved: a cached Person-only
    // schema must not survive the merge.
    let after = client.get("/sessions/m/schema").unwrap();
    let etag_after = after.header("etag").expect("ETag header").to_owned();
    assert_ne!(etag_before, etag_after);
    assert!(after.text().contains("Org"), "{}", after.text());
    assert!(after.text().contains("Person"), "{}", after.text());
    let resp = client
        .get_with_headers("/sessions/m/schema", &[("If-None-Match", &etag_before)])
        .unwrap();
    assert_eq!(resp.status, 200, "stale tag must refetch after a merge");

    // A bare schema (no accumulators) merges under the pessimistic
    // algebra; the empty schema is the merge identity.
    let empty = serde_json::to_string(&SchemaGraph::new()).unwrap();
    let resp = client.post("/sessions/m/merge", empty.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(v.get("input").and_then(|i| i.as_str()), Some("schema"));
    assert_eq!(v.get("changed"), Some(&serde::Value::Bool(false)));
}

#[test]
fn merge_rejects_malformed_bodies_and_unknown_sessions() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();

    let resp = client
        .post("/sessions/ghost/merge", org_shard_state(2).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(err_code(&resp), "unknown_session");

    client.post("/sessions", br#"{"name":"m"}"#).unwrap();
    let resp = client.post("/sessions/m/merge", b"{not json").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert_eq!(err_code(&resp), "bad_merge_input");

    // Valid JSON that is neither a shard state nor a schema.
    let resp = client.post("/sessions/m/merge", br#"{"foo":1}"#).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "bad_merge_input");

    let resp = client.post("/sessions/m/merge", &[0xff, 0xfe]).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(err_code(&resp), "bad_request");

    // Rejected merges leave the session untouched.
    let resp = client.get("/sessions/m").unwrap();
    let v = resp.json().unwrap();
    assert_eq!(v.get("version"), Some(&serde::Value::U64(1)));
}

/// A stream-mode shard state of 40 Org nodes, sketched under `seed`.
fn sketched_org_state(seed: u64) -> String {
    let mut g = PropertyGraph::new();
    for i in 0..40u64 {
        g.add_node(Node::new(i, LabelSet::single("Org")).with_prop("url", i as i64))
            .unwrap();
    }
    let config = HiveConfig {
        seed,
        stream: Some(StreamConfig::default()),
        ..HiveConfig::default()
    };
    let state = PgHive::new(config).discover_graph(&g).state;
    serde_json::to_string(&ShardState::from_state(&state)).unwrap()
}

/// Sketches built with another seed than the session's (or than a state
/// merged before them) cannot merge: 422, nothing applied, and the
/// session stays healthy.
#[test]
fn merge_refuses_sketches_of_another_seed() {
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    let resp = client
        .post("/sessions", br#"{"name":"s","seed":42,"mode":"stream"}"#)
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    // The session already holds the Org type, so a foreign Org type
    // folds into its sketches rather than landing beside them.
    let orgs: Vec<String> = (100..120)
        .map(|i| node_line(i, "Org", r#""url":{"Int":1}"#))
        .collect();
    let resp = client
        .post("/sessions/s/ingest", orgs.join("\n").as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let before = client.get("/sessions/s").unwrap().json().unwrap();

    let resp = client
        .post("/sessions/s/merge", sketched_org_state(7).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());
    assert_eq!(err_code(&resp), "merge_rejected");
    let after = client.get("/sessions/s").unwrap().json().unwrap();
    assert_eq!(after.get("broken"), Some(&serde::Value::Null), "{after:?}");
    for field in ["version", "hash", "nodes"] {
        assert_eq!(after.get(field), before.get(field), "{field}");
    }
    let resp = client
        .post("/sessions/s/merge", sketched_org_state(42).as_bytes())
        .unwrap();
    assert_eq!(
        resp.status,
        200,
        "the session's own seed merges: {}",
        resp.text()
    );

    // An exact session takes the first sketched state's parameters.
    client.post("/sessions", br#"{"name":"e"}"#).unwrap();
    let resp = client
        .post("/sessions/e/merge", sketched_org_state(7).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let resp = client
        .post("/sessions/e/merge", sketched_org_state(8).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());
}

#[test]
fn concurrent_merges_serialize_to_a_deterministic_hash() {
    // Eight clients slam distinct shard states into one session at
    // once. Merges must serialize — every request succeeds, the version
    // counter advances once per merge — and the final schema must equal
    // the same states folded sequentially, in any order, on a second
    // server: the accumulator algebra is commutative, so interleaving
    // cannot change the outcome.
    let states: Vec<String> = (0..8)
        .map(|i| labeled_shard_state(&format!("Type{i}"), 3 + i))
        .collect();

    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    let resp = client.post("/sessions", br#"{"name":"cc"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let go = std::sync::Barrier::new(states.len());
    std::thread::scope(|scope| {
        for state in &states {
            let mut client = server.client();
            let go = &go;
            scope.spawn(move || {
                go.wait();
                let resp = client.post("/sessions/cc/merge", state.as_bytes()).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
            });
        }
    });
    let summary = client.get("/sessions/cc").unwrap().json().unwrap();
    // Version 1 is the freshly created empty session; every merge
    // introduces a new type, so each must bump the version exactly once.
    assert_eq!(
        summary.get("version"),
        Some(&serde::Value::U64(states.len() as u64 + 1)),
        "each merge must land exactly once"
    );
    let concurrent_hash = summary.get("hash").cloned();

    // Reference: the same states merged one at a time, reversed.
    let server = TestServer::start(ServerConfig::default());
    let mut client = server.client();
    client.post("/sessions", br#"{"name":"seq"}"#).unwrap();
    for state in states.iter().rev() {
        let resp = client
            .post("/sessions/seq/merge", state.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    let reference = client.get("/sessions/seq").unwrap().json().unwrap();
    assert_eq!(
        concurrent_hash,
        reference.get("hash").cloned(),
        "concurrent and sequential merge orders must converge"
    );
    assert!(concurrent_hash.is_some());
}

#[test]
fn merged_state_survives_checkpoint_and_restart_bit_identically() {
    let dir = scratch_dir("merge-resume");
    let config = ServerConfig {
        state_dir: Some(dir.clone()),
        // Only the shutdown checkpoint persists, proving merged state
        // flows through the export path, not just the cadence path.
        checkpoint_every: 1000,
        ..ServerConfig::default()
    };
    let server = TestServer::start(config.clone());
    let mut client = server.client();
    let resp = client.post("/sessions", br#"{"name":"dm"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    client
        .post(
            "/sessions/dm/ingest",
            node_line(1, "Person", r#""age":{"Int":30}"#).as_bytes(),
        )
        .unwrap();
    let resp = client
        .post("/sessions/dm/merge", org_shard_state(4).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    let before = client.get("/sessions/dm").unwrap().json().unwrap();
    let schema_before = client.get("/sessions/dm/schema").unwrap().text();
    drop(client);
    let summary = server.stop();
    assert!(
        summary.persist_failures.is_empty(),
        "{:?}",
        summary.persist_failures
    );

    let server = TestServer::start(config);
    let mut client = server.client();
    let after = client.get("/sessions/dm").unwrap().json().unwrap();
    for field in ["batches", "nodes", "edges", "version", "hash"] {
        assert_eq!(
            after.get(field),
            before.get(field),
            "{field} drifted across restart"
        );
    }
    assert_eq!(
        client.get("/sessions/dm/schema").unwrap().text(),
        schema_before,
        "merged schema drifted across restart"
    );
    // The resumed session keeps accepting merges.
    let resp = client
        .post("/sessions/dm/merge", org_shard_state(4).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One deterministic JSONL batch: a mix of three node types and two
/// edge types, plus (in batch 2) a duplicate node and a dangling edge
/// that must be policed exactly as a single node would.
fn batch(b: u64) -> String {
    let mut lines = Vec::new();
    for i in 0..24u64 {
        let id = 100 * b + i;
        let (label, props) = match i % 3 {
            0 => ("Person", format!(r#""age":{{"Int":{}}}"#, 20 + i)),
            1 => ("Org", format!(r#""url":{{"Int":{id}}}"#)),
            _ => ("Place", format!(r#""lat":{{"Int":{i}}}"#)),
        };
        let props = if i % 6 == 0 {
            format!(r#"{props},"email":{{"Int":{id}}}"#)
        } else {
            props
        };
        lines.push(node_line(id, label, &props));
    }
    for i in 0..12u64 {
        let id = 50_000 + 100 * b + i;
        let src = 100 * b + (i % 24);
        let tgt = 100 * b + ((i * 7 + 3) % 24);
        let label = if i % 2 == 0 { "KNOWS" } else { "WORKS_AT" };
        lines.push(edge_line(id, src, tgt, label));
    }
    if b == 2 {
        lines.push(node_line(200, "Person", r#""age":{"Int":1}"#));
        lines.push(edge_line(99_999, 0, 999_999, "KNOWS"));
    }
    lines.join("\n")
}

/// The content hash a single pg-serve session reports after ingesting
/// batches `0..n` of the stream.
fn single_node_hash(n: u64) -> String {
    let solo = TestServer::start(ServerConfig::default());
    let mut client = solo.client();
    let resp = client.post("/sessions", br#"{"name":"solo"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    for b in 0..n {
        let resp = client
            .post("/sessions/solo/ingest", batch(b).as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "batch {b}: {}", resp.text());
    }
    session_hash(&mut client, "solo")
}

fn session_hash(client: &mut pg_serve::Client, name: &str) -> String {
    let summary = client.get(&format!("/sessions/{name}")).unwrap();
    assert_eq!(summary.status, 200, "{}", summary.text());
    summary
        .json()
        .unwrap()
        .get("hash")
        .and_then(|h| h.as_str())
        .expect("session summary carries a hash")
        .to_owned()
}

/// Distributed discovery over plain servers: a router that sees the
/// whole stream stages each batch once against one `StreamIndex` (so
/// duplicates and dangling edges are policed as on a single node), then
/// sends nodes and endpoint-resolved edges to shards by the Fibonacci
/// hash of their id. Each shard's `GET …/state` folds — through
/// `merge_states` in either order, and through `POST …/merge` into a
/// fresh session — to the hash one session reports for the same stream.
#[test]
fn served_shards_merge_to_the_single_node_hash() {
    const BATCHES: u64 = 6;
    const SHARDS: usize = 3;
    let expected = single_node_hash(BATCHES);
    let shard_of = |id: u64| (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % SHARDS;

    let shards: Vec<TestServer> = (0..SHARDS)
        .map(|_| TestServer::start(ServerConfig::default()))
        .collect();
    let mut clients: Vec<_> = shards.iter().map(TestServer::client).collect();
    for c in &mut clients {
        let resp = c.post("/sessions", br#"{"name":"s"}"#).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
    }
    let mut index = StreamIndex::default();
    for b in 0..BATCHES {
        let (elements, mut quarantine) =
            read_jsonl_elements(batch(b).as_bytes(), ErrorPolicy::Skip).unwrap();
        let staged = index
            .stage(elements, ErrorPolicy::Skip, &mut quarantine, "router")
            .unwrap();
        let expected_quarantine = if b == 2 { 2 } else { 0 };
        assert_eq!(quarantine.len(), expected_quarantine, "batch {b}");
        let mut bodies = vec![String::new(); SHARDS];
        let mut route = |id: u64, el: Element| {
            let body = &mut bodies[shard_of(id)];
            body.push_str(&serde_json::to_string(&el).unwrap());
            body.push('\n');
        };
        for n in &staged.nodes {
            route(n.id.0, Element::Node(n.clone()));
        }
        for e in &staged.edges {
            route(e.edge.id.0, Element::ResolvedEdge(e.clone()));
        }
        index.commit(staged);
        for (i, (c, body)) in clients.iter_mut().zip(&bodies).enumerate() {
            assert!(!body.is_empty(), "batch {b} left shard {i} idle");
            let resp = c.post("/sessions/s/ingest", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200, "batch {b}, shard {i}: {}", resp.text());
            let v = resp.json().unwrap();
            assert_eq!(v.get("quarantined"), Some(&serde::Value::U64(0)), "{v:?}");
        }
    }
    let states: Vec<String> = clients
        .iter_mut()
        .map(|c| {
            let resp = c.get("/sessions/s/state").unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
            resp.text()
        })
        .collect();

    let config = SessionSpec::default().hive_config();
    let fold = |order: &mut dyn Iterator<Item = &String>| {
        let parsed: Vec<_> = order
            .map(|text| pg_hive::merge::parse(text).unwrap().0)
            .collect();
        content_hash_hex(&merge_states(&parsed, &config).unwrap().schema)
    };
    assert_eq!(fold(&mut states.iter()), expected, "forward fold");
    assert_eq!(fold(&mut states.iter().rev()), expected, "reverse fold");

    let agg = TestServer::start(ServerConfig::default());
    let mut client = agg.client();
    let resp = client.post("/sessions", br#"{"name":"agg"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    for state in &states {
        let resp = client
            .post("/sessions/agg/merge", state.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    assert_eq!(session_hash(&mut client, "agg"), expected, "served fold");
}
