//! Hostile bytes for the merge input decoder: a structure-aware mutation
//! battery over `merge::parse`, the one way distributed work enters a
//! session — `pg-hive merge` operands and `POST /sessions/{id}/merge`
//! bodies alike.
//!
//! Seeds are three inputs a caller can legitimately send: an exact shard
//! state, a sketched (`--stream`) one, and a bare schema. Mutations drop,
//! duplicate and retype fields and array items anywhere in the tree — so
//! they reach the `(type id, accumulator)` pairs, the sketches inside an
//! accumulator and the schema's type lists — push counts to the edges of
//! their range, and retarget type ids.
//!
//! Contract: never a panic; the outcome is an error or a state that
//! re-encodes as a shard state and decodes to itself; decoding allocates
//! in proportion to the bytes it was handed and returns promptly.

use pg_hive::merge::{parse, MergeInput};
use pg_hive::{HiveConfig, PgHive, ShardState, StreamConfig};
use pg_model::{Edge, LabelSet, Node, NodeId, PropertyGraph};
use proptest::prelude::*;
use serde::Value;
use std::time::Duration;

mod mutation;
use mutation::{allocation_bound, field_mut, metered, mutate_field, mutate_item, mutate_number};

/// Labeled and label-less nodes, an optional key, mixed value types and
/// two edge types: enough for every accumulator field to be non-trivial.
fn graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    for i in 0..12u64 {
        let labels = if i % 4 == 3 {
            LabelSet::empty()
        } else {
            LabelSet::single("Person")
        };
        let mut n = Node::new(i, labels).with_prop("age", 20 + i as i64);
        if i % 3 == 0 {
            n = n.with_prop("name", format!("p{i}"));
        }
        g.add_node(n).unwrap();
    }
    for i in 0..4u64 {
        g.add_node(Node::new(100 + i, LabelSet::single("Org")).with_prop("url", i as f64))
            .unwrap();
    }
    for i in 0..12u64 {
        g.add_edge(
            Edge::new(
                1000 + i,
                NodeId(i),
                NodeId(100 + i % 4),
                LabelSet::single("AT"),
            )
            .with_prop("since", 2000 + i as i64),
        )
        .unwrap();
        g.add_edge(Edge::new(
            2000 + i,
            NodeId(i),
            NodeId((i * 5 + 1) % 12),
            LabelSet::single("KNOWS"),
        ))
        .unwrap();
    }
    g
}

/// The seeds, as JSON trees: exact shard state, sketched shard state,
/// bare schema.
fn seeds() -> Vec<Value> {
    let g = graph();
    let exact = PgHive::new(HiveConfig::default()).discover_graph(&g);
    let sketched = PgHive::new(HiveConfig {
        stream: Some(StreamConfig::default()),
        ..HiveConfig::default()
    })
    .discover_graph(&g);
    [
        serde_json::to_string(&ShardState::from_state(&exact.state)).unwrap(),
        serde_json::to_string(&ShardState::from_state(&sketched.state)).unwrap(),
        serde_json::to_string(&exact.schema).unwrap(),
    ]
    .iter()
    .map(|text| serde_json::from_str(text).unwrap())
    .collect()
}

/// Point one type id of the schema's node or edge list at another
/// type's id (a collision) or at one no accumulator has.
fn retarget_type_id(payload: &mut Value, a: u64, b: u64) {
    let schema = if field_mut(payload, "schema").is_some() {
        field_mut(payload, "schema").unwrap()
    } else {
        payload
    };
    let list = if a & 1 == 0 {
        "node_types"
    } else {
        "edge_types"
    };
    let Some(Value::Array(types)) = field_mut(schema, list) else {
        return;
    };
    if types.is_empty() {
        return;
    }
    let at = (b % types.len() as u64) as usize;
    if let Some(id) = field_mut(&mut types[at], "id") {
        *id = Value::U64((a >> 1) % 8);
    }
}

/// Apply one mutation to `payload`; `a` and `b` choose where and what.
fn mutate(payload: &mut Value, kind: u8, a: u64, b: u64) {
    match kind {
        0..=2 => mutate_field(payload, kind, a, b),
        3..=5 => mutate_item(payload, kind - 3, a, b),
        6 => mutate_number(payload, a, b),
        _ => retarget_type_id(payload, a, b),
    }
}

/// Decode under the battery's contract; `Ok(true)` if the input was
/// accepted.
fn check(text: &str) -> Result<bool, TestCaseError> {
    let (outcome, requested, elapsed) = metered(|| parse(text));
    prop_assert!(
        requested <= allocation_bound(text.len()),
        "parse asked for {requested} bytes on {} bytes of input",
        text.len()
    );
    prop_assert!(elapsed < Duration::from_secs(2), "parse took {elapsed:?}");
    let Ok((state, _)) = outcome else {
        return Ok(false);
    };
    let again = serde_json::to_string(&ShardState::from_state(&state))
        .map_err(|e| TestCaseError::Fail(format!("an accepted state does not encode: {e}")))?;
    let (back, kind) =
        parse(&again).map_err(|e| TestCaseError::Fail(format!("re-encoded form refused: {e}")))?;
    prop_assert_eq!(kind, MergeInput::ShardState);
    prop_assert_eq!(
        serde_json::to_string(&ShardState::from_state(&back)).unwrap(),
        again
    );
    Ok(true)
}

#[test]
fn every_seed_is_accepted_unmutated() {
    let kinds: Vec<MergeInput> = seeds()
        .iter()
        .map(|seed| {
            let text = serde_json::to_string(seed).unwrap();
            assert!(check(&text).unwrap(), "seed refused: {text}");
            parse(&text).unwrap().1
        })
        .collect();
    assert_eq!(
        kinds,
        [
            MergeInput::ShardState,
            MergeInput::ShardState,
            MergeInput::Schema
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutants_are_refused_or_round_trip(
        steps in prop::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..4),
    ) {
        thread_local! {
            static SEEDS: Vec<Value> = seeds();
        }
        for mut payload in SEEDS.with(Clone::clone) {
            for &(kind, a, b) in &steps {
                mutate(&mut payload, kind, a, b);
            }
            check(&serde_json::to_string(&payload).unwrap())?;
        }
    }
}

/// Input nested past any stack: refused by the JSON layer's depth cap,
/// not followed.
#[test]
fn nesting_bomb_is_refused() {
    let bomb = format!("{{\"schema\":{}", "[".repeat(500_000));
    assert!(!check(&bomb).unwrap());
}
