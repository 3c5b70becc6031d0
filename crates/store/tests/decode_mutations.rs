//! Hostile bytes for the JSONL decoder: a mutation battery over
//! `JsonlDecoder::decode_element`, which reads every line of a JSONL file
//! and every ingest body.
//!
//! Seeds are one line of each element kind: a node carrying every
//! property variant (escaped strings, extreme numbers, a date, a
//! datetime), an edge whose properties use the `[key, value]` pair-array
//! form, and a resolved edge. Structure-aware mutations drop, duplicate
//! and retype fields and array items anywhere in the element's value tree,
//! push its numbers to the edges of their range and bury an unknown field
//! at the edge of the depth cap in any object; byte-level ones then
//! cut the line, insert bracket runs around the depth cap, and put bad or
//! odd escapes just inside a string.
//!
//! Contract: never a panic; the decoder and the reference
//! `serde_json::from_str::<Element>` agree on accept or reject, and on the
//! value when both accept; a decoder that has read other lines before
//! agrees with a fresh one; a decode allocates in proportion to its input
//! and returns promptly.

use pg_model::{sym, Date, DateTime, Edge, LabelSet, Node, NodeId, PropertyValue};
use pg_store::jsonl::Element;
use pg_store::load::EdgeRecord;
use pg_store::JsonlDecoder;
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::time::Duration;

#[path = "../../core/tests/mutation/mod.rs"]
mod mutation;
use mutation::{
    allocation_bound, count_objects, metered, mutate_field, mutate_item, mutate_number,
};

/// The three seed elements as value trees.
fn seeds() -> Vec<Value> {
    let mut node = Node::new(7, LabelSet::from_iter(["Person", "Student"]))
        .with_prop("name", "Zoë \"q\" \\ tab\t nul\u{0} 😀")
        .with_prop("n", i64::MIN)
        .with_prop("score", -0.25f64)
        .with_prop("big", 1e300f64)
        .with_prop("ok", true);
    let date = Date {
        year: 1999,
        month: 12,
        day: 31,
    };
    node.props.insert(sym("born"), PropertyValue::Date(date));
    node.props.insert(
        sym("seen"),
        PropertyValue::DateTime(DateTime {
            date,
            hour: 23,
            minute: 59,
            second: 58,
        }),
    );
    let edge = Edge::new(9, NodeId(1), NodeId(u64::MAX), LabelSet::single("KNOWS"))
        .with_prop("since", 2015i64)
        .with_prop("w", 0.5f64);
    let mut edge_tree = Element::Edge(edge.clone()).to_value();
    // The pair-array form of the property map: `[[key, value], …]`.
    if let Some(Value::Object(props)) = mutation::field_mut(&mut edge_tree, "props") {
        let pairs = props
            .drain(..)
            .map(|(k, v)| Value::Array(vec![Value::Str(k), v]))
            .collect();
        *mutation::field_mut(&mut edge_tree, "props").unwrap() = Value::Array(pairs);
    }
    let record = Element::ResolvedEdge(EdgeRecord {
        edge,
        src_labels: LabelSet::single("Person"),
        tgt_labels: LabelSet::from_iter(["Org", "Place"]),
    });
    vec![Element::Node(node).to_value(), edge_tree, record.to_value()]
}

/// Containers opened at once: around the depth cap, and far past it.
const RUNS: [usize; 6] = [1, 126, 127, 128, 129, 5000];

/// What goes just inside a string: escapes the reader must refuse or
/// keep exactly (the `\u+abc` radix quirk included), and multi-byte
/// characters next to them.
const ESCAPES: &[&str] = &[
    "\\",
    "\\q",
    "\\u12",
    "\\u+abc",
    "\\u-abc",
    "\\uD800",
    "\\ud83d\\ude00",
    "\\ud83d\\u0041",
    "\\udc00",
    "\\u0000",
    "\\u00e9é",
    "\\/",
    "\\\"",
    "\"",
    "😀\\n",
    "\\u😀12",
];

/// The byte offset of a char boundary chosen by `a`.
fn boundary(line: &str, a: u64) -> usize {
    let mut at = (a % (line.len() as u64 + 1)) as usize;
    while !line.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Cut (`kind` 0), insert a bracket run (1) or a closing run (2), or put
/// an escape just after a quote (3); `a` picks where, `b` what.
fn mutate_bytes(line: &mut String, kind: u8, a: u64, b: u64) {
    match kind {
        0 => line.truncate(boundary(line, a)),
        1 | 2 => {
            let n = RUNS[(b % RUNS.len() as u64) as usize];
            let unit = match (kind, b >> 8 & 1) {
                (1, 0) => "[",
                (1, _) => "{\"a\":",
                (_, 0) => "]",
                _ => "}",
            };
            line.insert_str(boundary(line, a), &unit.repeat(n));
        }
        _ => {
            let quotes: Vec<usize> = line.match_indices('"').map(|(i, _)| i + 1).collect();
            let at = match quotes.len() {
                0 => boundary(line, a),
                n => quotes[(a % n as u64) as usize],
            };
            line.insert_str(at, ESCAPES[(b % ESCAPES.len() as u64) as usize]);
        }
    }
}

/// Add an unknown field to the `n`-th object of `tree` depth first
/// (`depth` containers around `tree`), nested so deep that the line's
/// total depth lands within two levels of the cap (`b` picks the level
/// and the field's place); `true` once it is added.
fn bury_in(tree: &mut Value, depth: usize, n: &mut usize, b: u64) -> bool {
    match tree {
        Value::Object(fields) => {
            if *n == 0 {
                let total = serde_json::lex::MAX_DEPTH - 2 + (b % 5) as usize;
                let mut deep = Value::Null;
                for _ in depth + 1..total {
                    deep = Value::Array(vec![deep]);
                }
                let at = (b >> 8) as usize % (fields.len() + 1);
                fields.insert(at, ("x".into(), deep));
                return true;
            }
            *n -= 1;
            fields.iter_mut().any(|(_, v)| bury_in(v, depth + 1, n, b))
        }
        Value::Array(items) => items.iter_mut().any(|v| bury_in(v, depth + 1, n, b)),
        _ => false,
    }
}

/// Bury an unknown field at the edge of the depth cap in one object of
/// `tree` (`a` picks it): every place a value is skipped gets walked
/// there.
fn bury(tree: &mut Value, a: u64, b: u64) {
    let objects = count_objects(tree);
    if objects > 0 {
        bury_in(tree, 0, &mut ((a % objects as u64) as usize), b);
    }
}

/// Apply one structure-aware mutation to `tree`.
fn mutate(tree: &mut Value, kind: u8, a: u64, b: u64) {
    match kind {
        0..=2 => mutate_field(tree, kind, a, b),
        3..=5 => mutate_item(tree, kind - 3, a, b),
        6 => mutate_number(tree, a, b),
        _ => bury(tree, a, b),
    }
}

thread_local! {
    /// A decoder that has read every earlier case on this thread: its
    /// pools and scratch buffers must not change what a line decodes to.
    static WARM: RefCell<JsonlDecoder> = RefCell::new(JsonlDecoder::new());
}

/// Decode `line` under the battery's contract.
fn check(line: &str) -> Result<(), TestCaseError> {
    let (ours, requested, elapsed) = metered(|| JsonlDecoder::new().decode_element(line));
    prop_assert!(
        requested <= allocation_bound(line.len()),
        "decoding asked for {requested} bytes on a {}-byte line",
        line.len()
    );
    prop_assert!(
        elapsed < Duration::from_secs(5),
        "decoding took {elapsed:?}"
    );
    let reference = serde_json::from_str::<Element>(line);
    let warm = WARM.with(|d| d.borrow_mut().decode_element(line));
    // `Debug` equality: `Element` has no `PartialEq`.
    let show = |e: Option<&Element>| e.map(|e| format!("{e:?}"));
    let ours_shown = show(ours.as_ref().ok());
    let reference_shown = show(reference.as_ref().ok());
    prop_assert_eq!(
        &ours_shown,
        &reference_shown,
        "decoder {:?} vs reference {:?}: {}",
        ours.as_ref().err().map(ToString::to_string),
        reference.as_ref().err().map(ToString::to_string),
        line
    );
    prop_assert_eq!(
        show(warm.as_ref().ok()),
        ours_shown,
        "a warm decoder read {}",
        line
    );
    Ok(())
}

#[test]
fn every_seed_decodes_unmutated() {
    for seed in seeds() {
        let line = serde_json::to_string(&seed).unwrap();
        check(&line).unwrap();
        assert!(JsonlDecoder::new().decode_element(&line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutants_decode_like_the_reference(
        steps in prop::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 0..4),
        bytes in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 0..3),
    ) {
        for mut tree in seeds() {
            for &(kind, a, b) in &steps {
                mutate(&mut tree, kind, a, b);
            }
            let mut line = serde_json::to_string(&tree).unwrap();
            for &(kind, a, b) in &bytes {
                mutate_bytes(&mut line, kind, a, b);
            }
            check(&line)?;
        }
    }
}
