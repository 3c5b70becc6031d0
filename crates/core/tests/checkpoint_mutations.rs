//! Hostile bytes for the checkpoint decoder: a structure-aware mutation
//! battery over `checkpoint::decode`.
//!
//! The envelope tests (truncation, bit flips, trailing garbage, torn
//! writes) stop at the checksum, which an attacker — or a bug in a
//! writer — recomputes. Here every mutant carries a correct `len=` and
//! `crc32=`, so it reaches the JSON layer and the typed decode behind it.
//! Seeds are the tracked v1 and v2 fixtures, a v1 payload as the last v1
//! writer produced it (embedder rows, empty memo), and two v3 frames of a
//! live session (exact and stream) that carry its `aux` state and `host`
//! fields; mutations drop, duplicate and retype fields anywhere in the
//! tree, damage the embedder's hex string, swap the accumulator mode and
//! restamp the version.
//!
//! Contract: never a panic; the outcome is `CheckpointError::Corrupt` or
//! a checkpoint that re-encodes and decodes to itself; decoding allocates
//! in proportion to the bytes it was handed and returns promptly.

use pg_hive::checkpoint::{crc32, decode, encode, CheckpointError};
use pg_hive::{HiveConfig, SharedSession, StreamConfig};
use pg_model::{Edge, LabelSet, Node, NodeId};
use pg_store::{jsonl::Element, ErrorPolicy, Quarantine};
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;
use std::time::Duration;

mod mutation;
use mutation::{allocation_bound, field_mut, metered, mutate_field};

fn fixture(path: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(path);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(version, payload)` of a valid envelope.
fn open(envelope: &[u8]) -> (u64, Value) {
    let newline = envelope.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&envelope[..newline]).unwrap();
    let version = header.split_whitespace().nth(1).unwrap()[1..]
        .parse()
        .unwrap();
    let payload = std::str::from_utf8(&envelope[newline + 1..]).unwrap();
    (version, serde_json::from_str(payload).unwrap())
}

/// An envelope around `payload` with a true length and checksum.
fn seal(version: u64, payload: &str) -> Vec<u8> {
    let mut out = format!(
        "PGHIVE-CKPT v{version} len={} crc32={:08x}\n",
        payload.len(),
        crc32(payload.as_bytes())
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// A v3 frame as a server writes it: a live session's checkpoint with its
/// aux state, and host fields of the server's shape.
fn served_frame(stream: bool) -> (u64, Value) {
    let config = HiveConfig {
        stream: stream.then(StreamConfig::default),
        ..HiveConfig::default()
    };
    let session = SharedSession::new(config, 8);
    let mut elements: Vec<(usize, Element)> = (0..6u64)
        .map(|id| {
            let labels = match id % 3 {
                0 => LabelSet::empty(),
                _ => LabelSet::single("Person"),
            };
            let node = Node::new(id, labels).with_prop("age", id as i64);
            (id as usize + 1, Element::Node(node))
        })
        .collect();
    elements.extend((0..4u64).map(|id| {
        let edge = Edge::new(10 + id, NodeId(id), NodeId(id + 1), LabelSet::single("R"));
        (id as usize + 7, Element::Edge(edge))
    }));
    let mut quarantine = Quarantine::new();
    session
        .ingest(elements, ErrorPolicy::Skip, &mut quarantine, "t")
        .unwrap();
    let mut frame = session.export().unwrap();
    frame.host = Some(
        serde_json::from_str(
            r#"{"name":"s","spec":{"seed":42,"mode":null},"quarantined_total":1}"#,
        )
        .unwrap(),
    );
    let bytes = encode(&frame).unwrap();
    assert!(bytes.starts_with(b"PGHIVE-CKPT v3 "));
    open(&bytes)
}

/// The seed payloads: v1 with memo content and no embedder (exact and
/// stream), v1 with an embedder and an empty memo, v2 (exact and stream),
/// v3 with aux state and host fields (exact and stream).
fn seeds() -> Vec<(u64, Value)> {
    let v2_exact = open(&fixture("wire_v2/exact.ckpt"));
    let Value::Object(mut fields) = v2_exact.1.clone() else {
        panic!("checkpoint payload is an object")
    };
    assert!(fields.iter().any(|(k, _)| k == "embedder"));
    fields.extend([
        ("node_cache".to_owned(), Value::Array(vec![])),
        ("edge_cache".to_owned(), Value::Array(vec![])),
        ("cache_hits".to_owned(), Value::U64(0)),
        ("node_fps".to_owned(), Value::Null),
        ("edge_fps".to_owned(), Value::Null),
    ]);
    vec![
        open(&fixture("wire_v1/exact.ckpt")),
        open(&fixture("wire_v1/stream.ckpt")),
        (1, Value::Object(fields)),
        v2_exact,
        open(&fixture("wire_v2/stream.ckpt")),
        served_frame(false),
        served_frame(true),
    ]
}

/// Apply one mutation to `payload` (or to `version`). `a` and `b` choose
/// where and what.
fn mutate(version: &mut u64, payload: &mut Value, kind: u8, a: u64, b: u64) {
    match kind {
        // Drop, duplicate or retype one field of one object.
        0..=2 => mutate_field(payload, kind, a, b),
        // Damage the embedder's hex string.
        3 => {
            let Some(Value::Str(hex)) =
                field_mut(payload, "embedder").and_then(|e| field_mut(e, "vectors"))
            else {
                return;
            };
            let cut = (b % (hex.len() as u64 + 1)) as usize;
            match a % 5 {
                0 => hex.truncate(cut),
                1 => hex.truncate(cut | 1),
                2 => hex.insert(cut, 'g'),
                3 => hex.insert(cut / 16 * 16, '+'),
                _ => hex.clear(),
            }
        }
        // Swap the accumulator mode.
        4 => {
            if let Some(mode) = field_mut(payload, "mode") {
                *mode = match (a % 3, &*mode) {
                    (0, _) => Value::Str("Bogus".to_owned()),
                    (_, Value::Str(m)) if m == "Exact" => Value::Str("Sketch".to_owned()),
                    _ => Value::Str("Exact".to_owned()),
                };
            }
        }
        // Restamp the version.
        _ => *version = [0, 1, 2, 3, 4, 1 << 32][(a % 6) as usize],
    }
}

/// Decode under the battery's contract; `Ok(true)` if the bytes were
/// accepted.
fn check(envelope: &[u8]) -> Result<bool, TestCaseError> {
    let (outcome, requested, elapsed) = metered(|| decode(envelope));
    prop_assert!(
        requested <= allocation_bound(envelope.len()),
        "decode asked for {requested} bytes on {} bytes of input",
        envelope.len()
    );
    prop_assert!(elapsed < Duration::from_secs(2), "decode took {elapsed:?}");
    match outcome {
        Err(CheckpointError::Corrupt { .. }) => Ok(false),
        Err(other) => Err(TestCaseError::Fail(format!("untyped failure: {other}"))),
        Ok(ckpt) => {
            let again = encode(&ckpt).expect("an accepted checkpoint encodes");
            let back = decode(&again)
                .map_err(|e| TestCaseError::Fail(format!("re-encoded form refused: {e}")))?;
            prop_assert_eq!(encode(&back).expect("encodes"), again);
            Ok(true)
        }
    }
}

#[test]
fn every_seed_is_accepted_unmutated() {
    for (version, payload) in seeds() {
        let text = serde_json::to_string(&payload).unwrap();
        assert!(
            check(&seal(version, &text)).unwrap(),
            "v{version} seed refused"
        );
        // Any version's payload under another readable stamp is still a
        // checkpoint: the five memo fields are skipped wherever they are,
        // and the v3 fields are optional.
        for other in 1..=3 {
            assert!(
                check(&seal(other, &text)).unwrap(),
                "v{version} as v{other}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutants_are_refused_or_round_trip(
        steps in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..4),
    ) {
        thread_local! {
            static SEEDS: Vec<(u64, Value)> = seeds();
        }
        for (mut version, mut payload) in SEEDS.with(Clone::clone) {
            for &(kind, a, b) in &steps {
                mutate(&mut version, &mut payload, kind, a, b);
            }
            let text = serde_json::to_string(&payload).unwrap();
            let accepted = check(&seal(version, &text))?;
            prop_assert!(
                !accepted || (1..=3).contains(&version),
                "accepted under version {version}"
            );
        }
    }
}

/// A payload nested past any stack, under a true checksum: refused by
/// the JSON layer's depth cap, not followed.
#[test]
fn nesting_bomb_is_refused() {
    let bomb = format!("{{\"schema\":{}", "[".repeat(500_000));
    assert!(!check(&seal(2, &bomb)).unwrap());
}

/// A length field far beyond the bytes present is a truncation report,
/// not an allocation.
#[test]
fn declared_length_is_not_trusted() {
    let lie = format!("PGHIVE-CKPT v2 len={} crc32=00000000\n{{}}", u64::MAX);
    assert!(!check(lie.as_bytes()).unwrap());
}
