//! End-to-end bit-identity: a graph split into batches and pushed by
//! several *concurrent* HTTP clients must yield exactly the schema the
//! offline pipeline discovers in one shot — same canonical content
//! hash, regardless of how the batches interleave on the wire.
//!
//! This is the server-side counterpart of `crates/core/tests/`
//! `equivalence.rs`: structural equality does not survive batching
//! (cluster ids depend on arrival order), but the canonical content
//! hash erases exactly those incidental differences.

use pg_hive::serialize::content_hash_hex;
use pg_hive::{HiveConfig, PgHive};
use pg_serve::ServerConfig;
use pg_store::jsonl::Element;
use pg_synth::{random_schema, synthesize, SchemaParams, SynthSpec};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

mod util;
use util::TestServer;

/// One JSONL body per client per phase: round-robin the lines across
/// `clients` buckets, then cut each bucket into `batches` bodies.
fn deal(lines: &[String], clients: usize, batches: usize) -> Vec<Vec<String>> {
    let mut per_client: Vec<Vec<String>> = vec![Vec::new(); clients];
    for (i, line) in lines.iter().enumerate() {
        per_client[i % clients].push(line.clone());
    }
    per_client
        .into_iter()
        .map(|mine| {
            let chunk = mine.len().div_ceil(batches).max(1);
            mine.chunks(chunk).map(|c| c.join("\n")).collect()
        })
        .collect()
}

fn ingest_concurrently(server: &TestServer, session: &str, bodies: Vec<Vec<String>>) {
    let barrier = Arc::new(Barrier::new(bodies.len()));
    let threads: Vec<_> = bodies
        .into_iter()
        .map(|mine| {
            let mut client = server.client();
            let path = format!("/sessions/{session}/ingest");
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for body in mine {
                    let resp = client.post(&path, body.as_bytes()).expect("ingest");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    let v = resp.json().expect("ingest response JSON");
                    assert_eq!(
                        v.get("quarantined"),
                        Some(&serde::Value::U64(0)),
                        "clean synthetic data must not quarantine: {v:?}"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
}

fn concurrent_ingest_matches_offline(seed: u64, clients: usize, batches: usize) {
    let schema = random_schema(&SchemaParams::default(), seed);
    let graph = synthesize(&SynthSpec::new(schema).sized_for(240), seed ^ 0x5eed).graph;

    // Ground truth: one-shot offline discovery with the same (default)
    // configuration the server gives new sessions.
    let offline = PgHive::new(HiveConfig::default()).discover_graph(&graph);
    let expected = content_hash_hex(&offline.schema);

    // Nodes and edges serialize to independent line sets; edges go in a
    // second phase so no batch ever references a node the server has
    // not met (which would quarantine it and change the input).
    let node_lines: Vec<String> = graph
        .nodes()
        .map(|n| serde_json::to_string(&Element::Node(n.clone())).expect("serialize node"))
        .collect();
    let edge_lines: Vec<String> = graph
        .edges()
        .map(|e| serde_json::to_string(&Element::Edge(e.clone())).expect("serialize edge"))
        .collect();

    let server = TestServer::start(ServerConfig::default());
    let mut admin = server.client();
    let resp = admin.post("/sessions", br#"{"name":"equiv"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());

    ingest_concurrently(&server, "equiv", deal(&node_lines, clients, batches));
    if !edge_lines.is_empty() {
        ingest_concurrently(&server, "equiv", deal(&edge_lines, clients, batches));
    }

    let summary = admin.get("/sessions/equiv").unwrap().json().unwrap();
    let server_hash = summary
        .get("hash")
        .and_then(|h| h.as_str())
        .expect("hash in summary")
        .to_owned();
    assert_eq!(
        server_hash, expected,
        "HTTP-batched schema diverged from one-shot discovery (seed {seed}, \
         {clients} clients × {batches} batches)"
    );

    // The schema endpoint agrees with itself: the ETag embeds the same
    // hash the summary reported.
    let resp = admin.get("/sessions/equiv/schema").unwrap();
    assert_eq!(resp.status, 200);
    let etag = resp.header("etag").expect("ETag").to_owned();
    assert!(etag.contains(&expected), "ETag {etag} vs hash {expected}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn concurrent_http_ingest_is_bit_identical_to_offline_discovery(
        seed in 0u64..10_000,
        batches in 1usize..4,
    ) {
        concurrent_ingest_matches_offline(seed, 4, batches);
    }
}

/// A pinned non-random instance of the same property, so plain
/// `cargo test` exercises the four-client path even if proptest is
/// filtered out.
#[test]
fn four_clients_seed_42() {
    concurrent_ingest_matches_offline(42, 4, 2);
}

/// The 10k-connections claim, scaled to a test: 1024 keep-alive
/// connections held open simultaneously against the epoll reactor,
/// each ingesting its share of the graph, interleaved by 8 driver
/// threads. The discovered schema must still be bit-identical to
/// one-shot offline discovery, and the server must actually have held
/// all the connections at once (worker-pool transports cannot — each
/// parked keep-alive connection would pin a thread, which is the
/// reason the reactor exists).
#[test]
fn thousand_keepalive_connections_interleave_without_divergence() {
    const CONNS: usize = 1024;
    const THREADS: usize = 8;
    pg_serve::raise_nofile_limit();

    let schema = random_schema(&SchemaParams::default(), 77);
    let graph = synthesize(&SynthSpec::new(schema).sized_for(1200), 77 ^ 0x5eed).graph;
    let offline = PgHive::new(HiveConfig::default()).discover_graph(&graph);
    let expected = content_hash_hex(&offline.schema);

    let node_lines: Vec<String> = graph
        .nodes()
        .map(|n| serde_json::to_string(&Element::Node(n.clone())).expect("serialize node"))
        .collect();
    let edge_lines: Vec<String> = graph
        .edges()
        .map(|e| serde_json::to_string(&Element::Edge(e.clone())).expect("serialize edge"))
        .collect();
    // One bucket per connection; many buckets are tiny or empty — an
    // empty batch must be as harmless over 1024 wires as over 4.
    let deal_into = |lines: &[String]| -> Vec<String> {
        let mut buckets = vec![Vec::new(); CONNS];
        for (i, line) in lines.iter().enumerate() {
            buckets[i % CONNS].push(line.clone());
        }
        buckets.into_iter().map(|b| b.join("\n")).collect()
    };
    let node_bodies = deal_into(&node_lines);
    let edge_bodies = deal_into(&edge_lines);

    let server = TestServer::start(ServerConfig::default());
    let mut admin = server.client();
    let resp = admin.post("/sessions", br#"{"name":"swarm"}"#).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());

    // Open every connection up front and keep each alive for the whole
    // run: clients pool their connection across requests.
    let mut clients: Vec<Vec<pg_serve::Client>> = (0..THREADS).map(|_| Vec::new()).collect();
    for i in 0..CONNS {
        clients[i % THREADS].push(server.client());
    }
    let mut per_thread_bodies: Vec<Vec<(usize, String, String)>> =
        (0..THREADS).map(|_| Vec::new()).collect();
    for i in 0..CONNS {
        per_thread_bodies[i % THREADS].push((i, node_bodies[i].clone(), edge_bodies[i].clone()));
    }

    // The main thread participates in every barrier so it can observe
    // the connection gauge at the moment all 1024 are provably open.
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let threads: Vec<_> = clients
        .into_iter()
        .zip(per_thread_bodies)
        .map(|(mut mine, bodies)| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Phase 1: every connection opens and ingests its node
                // share, staying open afterwards.
                barrier.wait();
                for (client, (i, nodes, _)) in mine.iter_mut().zip(&bodies) {
                    let resp = client
                        .post_with_retry("/sessions/swarm/ingest", nodes.as_bytes(), 10)
                        .unwrap_or_else(|e| panic!("conn {i} nodes: {e}"));
                    assert_eq!(resp.status, 200, "conn {i}: {}", resp.text());
                }
                // Phase 2 (all threads past phase 1, so every node is
                // known before any edge): the same — still-open —
                // connections ingest the edge share.
                barrier.wait();
                for (client, (i, _, edges)) in mine.iter_mut().zip(&bodies) {
                    let resp = client
                        .post_with_retry("/sessions/swarm/ingest", edges.as_bytes(), 10)
                        .unwrap_or_else(|e| panic!("conn {i} edges: {e}"));
                    assert_eq!(resp.status, 200, "conn {i}: {}", resp.text());
                    let v = resp.json().expect("ingest JSON");
                    assert_eq!(
                        v.get("quarantined"),
                        Some(&serde::Value::U64(0)),
                        "conn {i}: {v:?}"
                    );
                }
                // Hold connections until every thread is done with both
                // phases, so the peak is genuinely CONNS simultaneous.
                barrier.wait();
            })
        })
        .collect();
    barrier.wait(); // start
    barrier.wait(); // phase 1 complete: every connection has opened
                    // All 1024 keep-alive connections are simultaneously open right
                    // now — every thread is at (or headed into) phase 2 and nothing
                    // has hung up.
    assert!(
        server.metrics.open_connections() >= CONNS as u64,
        "peak connections {} < {CONNS}",
        server.metrics.open_connections()
    );
    barrier.wait(); // release the swarm to hang up
    for t in threads {
        t.join().expect("driver thread");
    }

    let summary = admin.get("/sessions/swarm").unwrap().json().unwrap();
    let server_hash = summary
        .get("hash")
        .and_then(|h| h.as_str())
        .expect("hash in summary");
    assert_eq!(
        server_hash, expected,
        "1024-connection interleaved ingest diverged from one-shot discovery"
    );
}
