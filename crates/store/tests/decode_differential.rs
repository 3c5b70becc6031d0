//! Differential property tests pinning the zero-copy JSONL decoder
//! against the vendored serde_json reference path.
//!
//! The decoder's contract is *acceptance-set equality*: for every input
//! line, both paths accept or both reject, and on acceptance they
//! produce the same `Element`. Error wording may differ; line numbers
//! and quarantine contents may not.

use pg_model::{Date, DateTime, Edge, LabelSet, Node, NodeId, PropertyGraph, PropertyValue};
use pg_store::jsonl::{from_jsonl_with_policy, to_jsonl, Element};
use pg_store::load::EdgeRecord;
use pg_store::{ErrorPolicy, JsonlDecoder};
use proptest::prelude::*;

mod reference;
use reference::from_jsonl_with_policy_reference;

/// Both decoders must agree on `line`: both reject, or both accept with
/// the same value (`Debug` equality — `Element` has no `PartialEq`, and
/// re-serialization would reject the non-finite floats the read path
/// accepts).
fn assert_parity(line: &str) -> Result<(), TestCaseError> {
    let reference: Result<Element, _> = serde_json::from_str(line);
    let zero_copy = JsonlDecoder::new().decode_element(line);
    match (&reference, &zero_copy) {
        (Ok(r), Ok(z)) => {
            prop_assert_eq!(
                format!("{r:?}"),
                format!("{z:?}"),
                "value diverged: {}",
                line
            )
        }
        (Ok(_), Err(e)) => {
            return Err(TestCaseError::Fail(format!(
                "reference accepted, decoder rejected ({e}): {line}"
            )))
        }
        (Err(e), Ok(_)) => {
            return Err(TestCaseError::Fail(format!(
                "decoder accepted, reference rejected ({e}): {line}"
            )))
        }
        (Err(_), Err(_)) => {}
    }
    Ok(())
}

/// Finite floats with the interesting edge cases pinned: signed zeros,
/// subnormals, huge/tiny exponents, and values whose shortest decimal
/// form has an exponent. (The vendored `any::<f64>()` only generates
/// finite values, so no filtering is needed.)
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>().boxed(),
        Just(-0.0),
        Just(0.0),
        Just(f64::MIN),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324),
        Just(1.5e300),
        Just(-2.5e-200),
    ]
}

fn arb_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0),
        Just(-1),
    ]
}

/// Arbitrary unicode strings built from raw codepoints: covers control
/// characters (which the writer escapes as `\n`, `\uXXXX`, …), quotes,
/// backslashes, surrogate-adjacent BMP chars, and astral-plane chars
/// (which round-trip as surrogate pairs in `\u` escapes).
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            (0u32..0x80).boxed(),     // ASCII incl. control chars
            (0u32..0x3000).boxed(),   // BMP
            (0u32..0x110000).boxed(), // full range (surrogates filtered)
            Just(0x22),               // quote
            Just(0x5c),               // backslash
            Just(0x1F600),            // astral (surrogate-pair escape)
            Just(0xFFFD),
        ],
        0..10,
    )
    .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

/// Property values over the full wire surface, including arbitrary
/// unicode strings (escapes, control characters, non-ASCII) and
/// calendar-invalid dates (the wire type checks ranges, not calendars).
fn arb_value() -> impl Strategy<Value = PropertyValue> {
    prop_oneof![
        arb_int().prop_map(PropertyValue::Int),
        arb_float().prop_map(PropertyValue::Float),
        any::<bool>().prop_map(PropertyValue::Bool),
        (any::<i32>(), any::<u8>(), any::<u8>())
            .prop_map(|(year, month, day)| PropertyValue::Date(Date { year, month, day })),
        (
            any::<i32>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>()
        )
            .prop_map(|(year, month, day, hour, minute, second)| {
                PropertyValue::DateTime(DateTime {
                    date: Date { year, month, day },
                    hour,
                    minute,
                    second,
                })
            }),
        arb_string().prop_map(PropertyValue::Str),
    ]
}

/// Arbitrary label/key strings: short ASCII (the common case, exercises
/// interning collisions) or fully arbitrary unicode.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z_]{1,8}",
        "[a-zA-Z_]{1,8}",
        "[a-zA-Z_]{1,8}",
        arb_string().boxed(),
    ]
}

fn arb_labels() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(arb_name(), 0..4).prop_map(LabelSet::from_iter)
}

fn arb_props() -> impl Strategy<Value = Vec<(String, PropertyValue)>> {
    prop::collection::vec((arb_name(), arb_value()), 0..5)
}

fn arb_edge() -> impl Strategy<Value = Edge> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        arb_labels(),
        arb_props(),
    )
        .prop_map(|(id, src, tgt, labels, props)| {
            let mut e = Edge::new(id, NodeId(src), NodeId(tgt), labels);
            for (k, v) in props {
                e.props.insert(pg_model::sym(&k), v);
            }
            e
        })
}

fn arb_element() -> impl Strategy<Value = Element> {
    let node = (any::<u64>(), arb_labels(), arb_props()).prop_map(|(id, labels, props)| {
        let mut n = Node::new(id, labels);
        for (k, v) in props {
            n.props.insert(pg_model::sym(&k), v);
        }
        Element::Node(n)
    });
    let resolved = (arb_edge(), arb_labels(), arb_labels()).prop_map(|(edge, src, tgt)| {
        Element::ResolvedEdge(EdgeRecord {
            edge,
            src_labels: src,
            tgt_labels: tgt,
        })
    });
    prop_oneof![node, arb_edge().prop_map(Element::Edge).boxed(), resolved]
}

/// Structured dirt: lines both decoders must classify identically.
fn arb_dirt() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("not json at all".to_owned()),
        Just("{".to_owned()),
        Just("{}".to_owned()),
        Just("[1,2]".to_owned()),
        Just("{\"kind\":\"node\"}".to_owned()),
        Just("{\"kind\":\"mystery\",\"id\":1}".to_owned()),
        Just("{\"kind\":\"node\",\"id\":-1,\"labels\":[],\"props\":{}}".to_owned()),
        Just("{\"kind\":\"node\",\"id\":1,\"labels\":[],\"props\":{}} trailing".to_owned()),
        Just("{\"kind\":\"node\",\"id\":1e999,\"labels\":[],\"props\":{}}".to_owned()),
        "[a-z{}\\[\\]\",:0-9]{0,20}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Write→read: an arbitrary element serialized by the vendored
    /// writer decodes identically through both paths, and identically to
    /// the original.
    #[test]
    fn decoder_matches_reference_on_written_elements(el in arb_element()) {
        let line = serde_json::to_string(&el).expect("finite values serialize");
        assert_parity(&line)?;
        let back = JsonlDecoder::new().decode_element(&line)
            .map_err(|e| TestCaseError::Fail(format!("decoder rejected own writer: {e}: {line}")))?;
        prop_assert_eq!(format!("{:?}", el), format!("{:?}", back), "round-trip diverged");
    }

    /// Truncating a valid line at any char boundary must be classified
    /// identically by both decoders (almost always a reject; a prefix
    /// that happens to be valid must parse identically).
    #[test]
    fn decoder_matches_reference_on_truncated_lines(el in arb_element(), cut in 0usize..200) {
        let line = serde_json::to_string(&el).expect("finite values serialize");
        let boundary_cuts: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
        let cut = boundary_cuts[cut % boundary_cuts.len()];
        assert_parity(&line[..cut])?;
    }

    /// Duplicate keys — in struct position (first occurrence wins) and
    /// in props position (last occurrence wins) — must resolve the same
    /// way in both decoders.
    #[test]
    fn decoder_matches_reference_on_duplicate_keys(
        key in "[a-z]{1,6}",
        a in arb_value(),
        b in arb_value(),
        id1 in any::<u64>(),
        id2 in any::<u64>(),
    ) {
        let va = serde_json::to_string(&a).unwrap();
        let vb = serde_json::to_string(&b).unwrap();
        let kj = serde_json::to_string(&key).unwrap();
        // Duplicate prop key: last wins.
        assert_parity(&format!(
            "{{\"kind\":\"node\",\"id\":{id1},\"labels\":[],\"props\":{{{kj}:{va},{kj}:{vb}}}}}"
        ))?;
        // Duplicate struct field: first wins, second is syntax-checked.
        assert_parity(&format!(
            "{{\"kind\":\"node\",\"id\":{id1},\"labels\":[\"A\"],\"props\":{{}},\"id\":{id2}}}"
        ))?;
        // Duplicate kind tag after fields.
        assert_parity(&format!(
            "{{\"id\":{id1},\"kind\":\"node\",\"labels\":[],\"props\":{{}},\"kind\":\"edge\"}}"
        ))?;
        // Pair-array props form with duplicates.
        assert_parity(&format!(
            "{{\"kind\":\"node\",\"id\":{id1},\"labels\":[],\"props\":[[{kj},{va}],[{kj},{vb}]]}}"
        ))?;
    }

    /// Arbitrary dirt lines are classified identically.
    #[test]
    fn decoder_matches_reference_on_dirt(line in arb_dirt()) {
        assert_parity(&line)?;
    }

    /// Whole-document differential: a mix of valid elements and dirt
    /// lines loads to the same graph with the same quarantine through
    /// the zero-copy path and the serde_json reference path, under both
    /// lenient and strict policies.
    #[test]
    fn document_load_matches_reference(
        els in prop::collection::vec(arb_element(), 1..12),
        dirt in prop::collection::vec((arb_dirt(), 0usize..12), 0..4),
    ) {
        let mut lines: Vec<String> = els
            .iter()
            .map(|e| serde_json::to_string(e).expect("finite values serialize"))
            .collect();
        for (d, pos) in &dirt {
            let pos = *pos % (lines.len() + 1);
            lines.insert(pos, d.clone());
        }
        let doc = lines.join("\n") + "\n";

        let fast = from_jsonl_with_policy(&doc, ErrorPolicy::Skip);
        let slow = from_jsonl_with_policy_reference(&doc, ErrorPolicy::Skip);
        let (gf, qf) = fast.expect("skip policy never aborts");
        let (gs, qs) = slow.expect("skip policy never aborts");
        prop_assert_eq!(to_jsonl(&gf), to_jsonl(&gs), "graphs diverged");
        prop_assert_eq!(qf.len(), qs.len(), "quarantine counts diverged");
        for (a, b) in qf.entries().iter().zip(qs.entries()) {
            prop_assert_eq!(a.line, b.line, "quarantine line numbers diverged");
            prop_assert_eq!(&a.raw, &b.raw, "quarantine excerpts diverged");
            prop_assert_eq!(&a.source, &b.source);
        }

        // Strict: both abort, or both succeed with empty quarantine.
        let fast = from_jsonl_with_policy(&doc, ErrorPolicy::Strict);
        let slow = from_jsonl_with_policy_reference(&doc, ErrorPolicy::Strict);
        match (&fast, &slow) {
            (Ok((gf, _)), Ok((gs, _))) => prop_assert_eq!(to_jsonl(gf), to_jsonl(gs)),
            (Err(_), Err(_)) => {}
            _ => return Err(TestCaseError::Fail(format!(
                "strict-policy divergence: fast={} slow={}",
                fast.is_ok(),
                slow.is_ok()
            ))),
        }
    }
}

/// Hand-written document with escapes, extreme numbers, a dirt line, a
/// dangling edge and a blank line: same graph, same quarantine lines
/// and excerpts through both paths.
#[test]
fn zero_copy_path_matches_reference_path() {
    let mut g = PropertyGraph::new();
    g.add_node(
        Node::new(1, LabelSet::from_iter(["Person", "Student"]))
            .with_prop("name", "Zoë \"q\" \\ tab\t")
            .with_prop("score", -0.25f64)
            .with_prop("n", i64::MIN),
    )
    .unwrap();
    g.add_node(Node::new(2, LabelSet::empty())).unwrap();
    g.add_edge(
        Edge::new(7, NodeId(1), NodeId(2), LabelSet::single("KNOWS")).with_prop("since", 2015i64),
    )
    .unwrap();
    let mut text = to_jsonl(&g);
    text.push_str("not json\n");
    text.push_str(
        "{\"kind\":\"edge\",\"id\":9,\"src\":1,\"tgt\":404,\"labels\":[],\"props\":{}}\n",
    );
    text.push_str("   \n"); // blank line, skipped by both
    let (gn, qn) = from_jsonl_with_policy(&text, ErrorPolicy::Skip).unwrap();
    let (gr, qr) = from_jsonl_with_policy_reference(&text, ErrorPolicy::Skip).unwrap();
    assert_eq!(to_jsonl(&gn), to_jsonl(&gr), "graphs must be identical");
    assert_eq!(qn.len(), qr.len());
    for (a, b) in qn.entries().iter().zip(qr.entries()) {
        assert_eq!(a.line, b.line);
        assert_eq!(a.raw, b.raw);
    }
}

/// CRLF separators plus a final line with no newline at all split the
/// same way through both paths (`str::lines()` semantics).
#[test]
fn crlf_lines_split_like_the_reference() {
    let node = |id: u64| {
        serde_json::to_string(&Element::Node(Node::new(id, LabelSet::single("P")))).unwrap()
    };
    let text = format!("{}\r\n{}\r\n{}", node(1), node(2), node(3));
    let (g, _) = from_jsonl_with_policy(&text, ErrorPolicy::Skip).unwrap();
    let (gr, _) = from_jsonl_with_policy_reference(&text, ErrorPolicy::Skip).unwrap();
    assert_eq!(g.node_count(), 3);
    assert_eq!(to_jsonl(&g), to_jsonl(&gr));
}

/// `levels` nested containers, arrays and objects alternating, around a
/// `0`.
fn nested(levels: usize) -> String {
    let mut out = String::new();
    for i in 0..levels {
        out.push_str(if i % 2 == 0 { "[" } else { "{\"a\":" });
    }
    out.push('0');
    for i in (0..levels).rev() {
        out.push(if i % 2 == 0 { ']' } else { '}' });
    }
    out
}

/// Every place the decoder checks a value it does not keep, with how many
/// containers are open around that value: a top-level unknown field, a
/// field before `kind` (checked, then read again once the tag is known),
/// an unknown field inside a `Date` and inside a `DateTime`, and an
/// unknown field of a resolved edge's nested edge object.
const SKIP_POSITIONS: [(&str, usize); 5] = [
    (r#"{"kind":"node","id":1,"labels":[],"props":{},"x":@}"#, 1),
    (r#"{"x":@,"kind":"node","id":1,"labels":[],"props":{}}"#, 1),
    (
        r#"{"kind":"node","id":1,"labels":[],"props":{"d":{"Date":{"year":1,"month":2,"day":3,"x":@}}}}"#,
        4,
    ),
    (
        r#"{"kind":"node","id":1,"labels":[],"props":{"t":{"DateTime":{"date":{"year":1,"month":2,"day":3},"hour":1,"minute":2,"second":3,"x":@}}}}"#,
        4,
    ),
    (
        r#"{"kind":"resolved_edge","edge":{"id":9,"src":1,"tgt":2,"labels":[],"props":{},"x":@},"src_labels":[],"tgt_labels":[]}"#,
        2,
    ),
];

/// The reference refuses text nested deeper than `MAX_DEPTH`; the
/// decoder must draw the line at the same level in every position where
/// it checks a value without keeping it.
#[test]
fn nesting_depth_matches_reference_at_the_cap() {
    let cap = serde_json::lex::MAX_DEPTH;
    for (template, open) in SKIP_POSITIONS {
        for depth in [cap - 1, cap, cap + 1] {
            let line = template.replace('@', &nested(depth - open));
            assert_eq!(
                serde_json::from_str::<Element>(&line).is_ok(),
                depth <= cap,
                "reference at depth {depth}: {template}"
            );
            assert_parity(&line).unwrap();
        }
    }
}

/// A line nested a million deep is refused with a typed error, on a
/// stack far too small to recurse that deep.
#[test]
fn a_million_levels_are_refused_on_a_small_stack() {
    let line = format!(
        r#"{{"kind":"node","id":1,"labels":[],"props":{{}},"x":{}}}"#,
        nested(1_000_000)
    );
    let refused = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || JsonlDecoder::new().decode_element(&line).map(drop))
        .unwrap()
        .join()
        .expect("the decoder returns instead of overflowing the stack");
    let err = refused.unwrap_err();
    assert!(err.to_string().contains("nesting too deep"), "{err}");
}
