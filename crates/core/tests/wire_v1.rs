//! Wire-compatibility fixtures for the durable formats: the checkpoint
//! envelope in exact and stream mode — `PGHIVE-CKPT v1` and `v2`, which
//! this build only reads — and the `--state-out` [`ShardState`] JSON.
//!
//! The files under `tests/fixtures/wire_v1/` were written by the build
//! that preceded the single-accumulator refactor, by a session that
//! still kept a pattern memo: they carry its five fields, which the
//! reader skips. Each must still decode, resume and finish on the
//! schema hash recorded beside it in `hashes.txt`. The files under
//! `tests/fixtures/wire_v2/` — the checkpoint the last v2 build wrote of
//! an uninterrupted session after `CHECKPOINT_AFTER` batches, and the
//! hash it finishes on — hold the byte-identity pin: decode → encode is the identity on them past the header line,
//! which now says v3 (an engine checkpoint has no `aux` or `host` field,
//! so its v3 payload is its v2 payload) — durable state and the
//! shard-state exchange are recovery data, so an in-memory redesign must
//! not move a byte of them.

use pg_hive::checkpoint::{decode, encode};
use pg_hive::{
    content_hash_hex, merge_states, HiveConfig, HiveSession, PgHive, ShardState, StreamConfig,
    SHARD_SPLIT_SALT,
};
use pg_model::{Edge, LabelSet, Node, NodeId, PropertyGraph};
use pg_store::{split_batches, GraphBatch};
use std::path::PathBuf;

const BATCHES: usize = 4;
const CHECKPOINT_AFTER: usize = 2;
const SEED: u64 = 42;

/// A small graph with every wire-relevant shape: two labeled node
/// types, label-less nodes that merge by Jaccard and ones that stay
/// abstract, optional keys, mixed value types, and two edge types with
/// fan-out, fan-in and properties.
fn graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..24u64 {
        let labels = if i % 6 == 5 {
            LabelSet::empty()
        } else {
            LabelSet::single("Person")
        };
        let mut n = Node::new(i, labels)
            .with_prop("name", format!("p{i}"))
            .with_prop("age", 20 + i as i64);
        if i % 4 == 0 {
            n = n.with_prop("score", i as f64 / 2.0);
        }
        g.add_node(n).unwrap();
    }
    for i in 0..8u64 {
        let url = if i == 3 {
            pg_model::PropertyValue::from(7i64)
        } else {
            pg_model::PropertyValue::from(format!("o{i}.example"))
        };
        g.add_node(Node::new(100 + i, LabelSet::single("Org")).with_prop("url", url))
            .unwrap();
    }
    for i in 0..4u64 {
        g.add_node(Node::new(200 + i, LabelSet::empty()).with_prop("voltage", i as f64))
            .unwrap();
    }
    for i in 0..24u64 {
        g.add_edge(
            Edge::new(
                1000 + i,
                NodeId(i),
                NodeId(100 + i % 8),
                LabelSet::single("WORKS_AT"),
            )
            .with_prop("from", 2000 + i as i64),
        )
        .unwrap();
    }
    for i in 0..16u64 {
        g.add_edge(Edge::new(
            2000 + i,
            NodeId(i % 5),
            NodeId((i * 7 + 1) % 24),
            LabelSet::single("KNOWS"),
        ))
        .unwrap();
    }
    g
}

fn config(stream: bool) -> HiveConfig {
    HiveConfig {
        stream: stream.then(StreamConfig::default),
        ..HiveConfig::default()
    }
    .with_seed(SEED)
}

fn batches() -> Vec<GraphBatch> {
    split_batches(&graph(), BATCHES, SEED)
}

fn shards() -> Vec<GraphBatch> {
    split_batches(&graph(), 2, SEED ^ SHARD_SPLIT_SALT)
}

fn fixture_dir(version: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(version)
}

fn recorded_hash(version: &str, name: &str) -> String {
    let text = std::fs::read_to_string(fixture_dir(version).join("hashes.txt")).unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ').map(str::to_owned))
        .unwrap_or_else(|| panic!("no recorded hash for {name}"))
}

/// A session restored from the v1 file — its memo fields skipped —
/// finishes the remaining batches on the recorded hash, and what it
/// saves next is v3. The v2 file beside it decodes and re-encodes to
/// the same payload and resumes to the hash of the uninterrupted run.
fn checkpoint_round_trips_and_resumes(name: &str, stream: bool) {
    let v1 = std::fs::read(fixture_dir("wire_v1").join(name)).unwrap();
    assert!(v1.starts_with(b"PGHIVE-CKPT v1 "));
    let text = String::from_utf8(v1.clone()).unwrap();
    let memo_field = if stream {
        "\"node_fps\":{"
    } else {
        "\"node_cache\":[["
    };
    assert!(text.contains(memo_field), "{name} carries no memo content");
    let ckpt = decode(&v1).unwrap();
    assert_eq!(ckpt.batches_processed, CHECKPOINT_AFTER);
    // A v1 writer retrained its embedder every batch and kept none of it:
    // the restored session trains at its next batch.
    assert!(ckpt.embedder.is_none());
    let mut session = HiveSession::restore(config(stream), ckpt).unwrap();
    assert!(session.checkpoint().embedder.is_none());
    for b in &batches()[CHECKPOINT_AFTER..] {
        session.process_graph_batch(b);
        assert!(session.checkpoint().embedder.is_some());
    }
    assert!(encode(&session.checkpoint())
        .unwrap()
        .starts_with(b"PGHIVE-CKPT v3 "));
    assert_eq!(
        content_hash_hex(&session.finish().schema),
        recorded_hash("wire_v1", name)
    );

    let v2 = std::fs::read(fixture_dir("wire_v2").join(name)).unwrap();
    assert!(v2.starts_with(b"PGHIVE-CKPT v2 "));
    let ckpt = decode(&v2).unwrap();
    let again = encode(&ckpt).unwrap();
    let payload = |bytes: &[u8]| bytes[bytes.iter().position(|&b| b == b'\n').unwrap()..].to_vec();
    assert!(again.starts_with(b"PGHIVE-CKPT v3 "));
    assert!(
        payload(&again) == payload(&v2),
        "{name} re-encodes differently"
    );
    assert_eq!(ckpt.batches_processed, CHECKPOINT_AFTER);
    assert!(ckpt.embedder.is_some());
    let mut session = HiveSession::restore(config(stream), ckpt).unwrap();
    for b in &batches()[CHECKPOINT_AFTER..] {
        session.process_graph_batch(b);
    }
    assert_eq!(
        content_hash_hex(&session.finish().schema),
        recorded_hash("wire_v2", name)
    );
}

#[test]
fn exact_checkpoint_is_wire_stable() {
    checkpoint_round_trips_and_resumes("exact.ckpt", false);
}

#[test]
fn stream_checkpoint_is_wire_stable() {
    checkpoint_round_trips_and_resumes("stream.ckpt", true);
}

#[test]
fn shard_state_is_wire_stable() {
    let name = "shard_state.json";
    let text = std::fs::read_to_string(fixture_dir("wire_v1").join(name)).unwrap();
    let shard0: ShardState = serde_json::from_str(&text).unwrap();
    assert!(!shard0.edge_accums.is_empty(), "fixture carries edges");
    assert_eq!(serde_json::to_string(&shard0).unwrap(), text);

    let shard1 = PgHive::new(config(false))
        .discover(&shards()[1].nodes, &shards()[1].edges)
        .state;
    let merged = merge_states(&[shard0.into_state(), shard1], &config(false)).unwrap();
    assert_eq!(
        content_hash_hex(&merged.schema),
        recorded_hash("wire_v1", name)
    );
}
