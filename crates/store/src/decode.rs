//! Zero-copy JSONL element decoder.
//!
//! The stock read path (`serde_json::from_str::<Element>`) parses every
//! line into an intermediate `Value` tree — one `String` per object key
//! and string scalar, one `Vec` per object/array — and then converts
//! that tree into a [`Node`]/[`Edge`]/[`EdgeRecord`]. For a graph dump
//! whose key universe is a few dozen symbols repeated millions of
//! times, that is millions of duplicate allocations on the hot ingest
//! path.
//!
//! [`JsonlDecoder`] parses the line **directly** into the typed element:
//! no `Value` tree, keys and labels resolved through a persistent
//! [`SymbolInterner`] (so repeated keys cost a refcount bump, not an
//! allocation), unescaped strings borrowed straight from the input
//! slice on the fast path and unescaped into one reusable scratch
//! buffer on the slow path. Steady-state, a decoded record allocates
//! only its own containers and owned string *values* (and a buffer per
//! object with an escaped key).
//!
//! ## One lexer
//!
//! The decoder must accept **exactly** the set of lines the vendored
//! `serde_json` + `serde::Deserialize` pipeline accepts — the lenient
//! loaders quarantine rejected lines, so any acceptance drift would
//! change quarantine contents and break bit-identity with the reference
//! path. It reads through the same lexer as that pipeline,
//! [`serde_json::lex`]: the same whitespace, keyword, number and string
//! grammar (quirks included: leading zeros are accepted, `"1."` parses as
//! a float, non-negative integers classify as `U64`, and a `\u` escape
//! takes a leading `+`), and
//! every object and array through the lexer's two walkers, which hold the
//! one depth counter capped at `MAX_DEPTH`. Scalar acceptance and depth
//! parity hold by construction. What is written here is the typed field
//! handling, which mirrors the derived `from_value` impls: struct fields
//! are first-occurrence-wins with later duplicates and unknown fields
//! syntax-validated but ignored, all fields are required, property maps
//! accept both the object form and the `[key, value]` pair-array form with
//! last-wins duplicate keys, `PropertyValue` objects must carry exactly
//! one raw pair, and label sets preserve wire order (the tuple struct is
//! transparent). Error *messages* may differ from the reference — the
//! loaders only surface them as quarantine reasons — but accept/reject
//! decisions may not.

use crate::jsonl::Element;
use crate::load::EdgeRecord;
use pg_model::{
    Date, DateTime, Edge, EdgeId, FnvBuildHasher, LabelSet, Node, NodeId, PropMap, PropertyValue,
    Symbol, SymbolInterner,
};
use serde_json::lex::{Lexer, Num};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a line failed to decode: the lexer's error, which carries the byte
/// offset of the failure like the reference parser's errors; the text is
/// surfaced as a quarantine reason.
pub type DecodeError = serde_json::Error;

/// A reusable JSONL → [`Element`] decoder with a persistent symbol
/// pool. Reuse one decoder across lines (and across batches: the
/// server keeps one per session) so every repeated label and property
/// key resolves to the same pooled `Arc<str>`, and every repeated label
/// *array* to the same pooled [`LabelSet`].
#[derive(Default)]
pub struct JsonlDecoder {
    interner: SymbolInterner,
    scratch: String,
    label_sets: LabelSetPool,
    props: Vec<(Symbol, PropertyValue)>,
}

/// Label sets already built, keyed by the addresses of their (pooled)
/// symbols in wire order, so a repeated label array costs a refcount
/// bump instead of an allocation. Address keys are sound because every
/// entry owns the symbols its key names: while the entry lives those
/// allocations cannot be freed and reused, so an equal address sequence
/// is the same strings in the same order. That the interner hands out
/// one address per distinct string is what makes the pool *hit*.
#[derive(Default)]
struct LabelSetPool {
    sets: HashMap<Box<[usize]>, LabelSet, FnvBuildHasher>,
    labels: Vec<Symbol>,
    key: Vec<usize>,
}

impl LabelSetPool {
    fn begin(&mut self) {
        self.labels.clear();
        self.key.clear();
    }

    fn push(&mut self, label: Symbol) {
        self.key.push(Arc::as_ptr(&label) as *const u8 as usize);
        self.labels.push(label);
    }

    /// The set of the labels pushed since [`Self::begin`], wire order
    /// preserved as [`LabelSet::from_wire`] requires.
    fn finish(&mut self) -> LabelSet {
        if let Some(set) = self.sets.get(self.key.as_slice()) {
            return set.clone();
        }
        let set = LabelSet::from_wire(self.labels.clone());
        self.sets.insert(self.key.as_slice().into(), set.clone());
        set
    }
}

/// The element a `kind` tag names.
#[derive(Clone, Copy)]
enum Kind {
    Node,
    Edge,
    ResolvedEdge,
}

/// The fields read so far of one element, or of a resolved edge's nested
/// edge.
#[derive(Default)]
struct Fields {
    id: Option<u64>,
    src: Option<u64>,
    tgt: Option<u64>,
    labels: Option<LabelSet>,
    props: Option<PropMap>,
    edge: Option<Edge>,
    src_labels: Option<LabelSet>,
    tgt_labels: Option<LabelSet>,
}

impl Fields {
    fn edge(self, lex: &Lexer<'_>) -> Result<Edge, DecodeError> {
        match (self.id, self.src, self.tgt, self.labels, self.props) {
            (Some(id), Some(src), Some(tgt), Some(labels), Some(props)) => Ok(Edge {
                id: EdgeId(id),
                src: NodeId(src),
                tgt: NodeId(tgt),
                labels,
                props,
            }),
            _ => Err(lex.error("missing Edge field")),
        }
    }

    fn element(self, kind: Kind, lex: &Lexer<'_>) -> Result<Element, DecodeError> {
        match kind {
            Kind::Node => match (self.id, self.labels, self.props) {
                (Some(id), Some(labels), Some(props)) => Ok(Element::Node(Node {
                    id: NodeId(id),
                    labels,
                    props,
                })),
                _ => Err(lex.error("missing Node field")),
            },
            Kind::Edge => self.edge(lex).map(Element::Edge),
            Kind::ResolvedEdge => match (self.edge, self.src_labels, self.tgt_labels) {
                (Some(edge), Some(src_labels), Some(tgt_labels)) => {
                    Ok(Element::ResolvedEdge(EdgeRecord {
                        edge,
                        src_labels,
                        tgt_labels,
                    }))
                }
                _ => Err(lex.error("missing EdgeRecord field")),
            },
        }
    }
}

impl JsonlDecoder {
    /// A fresh decoder with an empty symbol pool.
    pub fn new() -> JsonlDecoder {
        JsonlDecoder::default()
    }

    /// Number of distinct symbols pooled so far (metrics/diagnostics).
    pub fn interned_symbols(&self) -> usize {
        self.interner.len()
    }

    /// Number of distinct label arrays pooled so far.
    pub fn pooled_label_sets(&self) -> usize {
        self.label_sets.sets.len()
    }

    /// Decode one JSONL line into an element. The line must contain
    /// exactly one JSON object (leading/trailing whitespace tolerated),
    /// as the reference `serde_json::from_str::<Element>` requires.
    pub fn decode_element(&mut self, line: &str) -> Result<Element, DecodeError> {
        let mut lex = Lexer::new(line);
        let element = self.element(&mut lex)?;
        lex.end()?;
        Ok(element)
    }

    /// The internally tagged `Element` envelope: fields before the first
    /// `"kind"` pair are checked and remembered (writers emit `kind`
    /// first, so that list is almost always empty), then read as the
    /// tagged variant's once the tag is known, before the fields after it.
    fn element(&mut self, lex: &mut Lexer<'_>) -> Result<Element, DecodeError> {
        // Fields preceding "kind": (unescaped key, value start offset).
        let mut deferred: Vec<(String, usize)> = Vec::new();
        let mut kind = None;
        let mut fields = Fields::default();
        lex.map(|lex, key| {
            if let Some(kind) = kind {
                return self.field(lex, kind, key, &mut fields);
            }
            if key != "kind" {
                deferred.push((key.to_owned(), lex.pos()));
                return lex.skip_value();
            }
            let tag = match lex.str(&mut self.scratch)? {
                "node" => Kind::Node,
                "edge" => Kind::Edge,
                "resolved_edge" => Kind::ResolvedEdge,
                _ => return Err(lex.error("unknown Element variant")),
            };
            kind = Some(tag);
            let resume = lex.pos();
            for (key, at) in &deferred {
                lex.seek(*at);
                self.field(lex, tag, key, &mut fields)?;
            }
            lex.seek(resume);
            Ok(())
        })?;
        match kind {
            Some(kind) => fields.element(kind, lex),
            None => Err(lex.error("missing Element tag")),
        }
    }

    /// The value of field `key` of a `kind` element: the first occurrence
    /// of a known field is read into `f`; a later duplicate or an unknown
    /// field (a second `"kind"` too) is syntax-checked and ignored.
    fn field(
        &mut self,
        lex: &mut Lexer<'_>,
        kind: Kind,
        key: &str,
        f: &mut Fields,
    ) -> Result<(), DecodeError> {
        use Kind::{Edge, Node, ResolvedEdge};
        match (kind, key) {
            (Node | Edge, "id") if f.id.is_none() => f.id = Some(u64_value(lex)?),
            (Edge, "src") if f.src.is_none() => f.src = Some(u64_value(lex)?),
            (Edge, "tgt") if f.tgt.is_none() => f.tgt = Some(u64_value(lex)?),
            (Node | Edge, "labels") if f.labels.is_none() => f.labels = Some(self.labels(lex)?),
            (Node | Edge, "props") if f.props.is_none() => f.props = Some(self.props(lex)?),
            (ResolvedEdge, "edge") if f.edge.is_none() => {
                let mut edge = Fields::default();
                lex.map(|lex, key| self.field(lex, Edge, key, &mut edge))?;
                f.edge = Some(edge.edge(lex)?);
            }
            (ResolvedEdge, "src_labels") if f.src_labels.is_none() => {
                f.src_labels = Some(self.labels(lex)?)
            }
            (ResolvedEdge, "tgt_labels") if f.tgt_labels.is_none() => {
                f.tgt_labels = Some(self.labels(lex)?)
            }
            _ => lex.skip_value()?,
        }
        Ok(())
    }

    /// `LabelSet` mirrors the transparent deserialize: the raw label
    /// array in wire order, no sort, no dedup — through the pool, so
    /// only the first occurrence of an array allocates.
    fn labels(&mut self, lex: &mut Lexer<'_>) -> Result<LabelSet, DecodeError> {
        self.label_sets.begin();
        lex.seq(|lex| {
            let label = self.interner.intern(lex.str(&mut self.scratch)?);
            self.label_sets.push(label);
            Ok(())
        })?;
        Ok(self.label_sets.finish())
    }

    /// A property map, in either of the two wire forms the reference
    /// `deserialize_map_entries` accepts: a JSON object, or an array of
    /// `[key, value]` pairs (each exactly two items, key a string).
    /// Entries collect in the reused scratch and leave it as one
    /// exact-size [`PropMap`]; duplicate keys are last-wins, as
    /// collecting a `PropMap` makes them.
    fn props(&mut self, lex: &mut Lexer<'_>) -> Result<PropMap, DecodeError> {
        self.props.clear();
        if lex.peek() == Some(b'[') {
            lex.seq(|lex| {
                let (mut key, mut value, mut items) = (None, None, 0);
                lex.seq(|lex| {
                    items += 1;
                    match items {
                        1 => key = Some(self.interner.intern(lex.str(&mut self.scratch)?)),
                        2 => value = Some(self.property_value(lex)?),
                        _ => return Err(lex.error("expected [key, value] pair")),
                    }
                    Ok(())
                })?;
                let pair = key
                    .zip(value)
                    .ok_or_else(|| lex.error("expected [key, value] pair"))?;
                self.props.push(pair);
                Ok(())
            })?;
        } else {
            lex.map(|lex, key| {
                let key = self.interner.intern(key);
                let value = self.property_value(lex)?;
                self.props.push((key, value));
                Ok(())
            })?;
        }
        Ok(self.props.drain(..).collect())
    }

    /// An externally tagged `PropertyValue`: an object with **exactly
    /// one** raw pair whose key names the variant.
    fn property_value(&mut self, lex: &mut Lexer<'_>) -> Result<PropertyValue, DecodeError> {
        let mut value = None;
        lex.map(|lex, tag| {
            if value.is_some() {
                return Err(lex.error("unrecognized PropertyValue variant"));
            }
            value = Some(match tag {
                "Int" => PropertyValue::Int(i64_value(lex)?),
                "Float" => PropertyValue::Float(match lex.num()? {
                    Num::F(x) => x,
                    Num::I(n) => n as f64,
                    Num::U(n) => n as f64,
                }),
                "Bool" => PropertyValue::Bool(match lex.peek() {
                    Some(b't') => lex.keyword("true").map(|()| true)?,
                    Some(b'f') => lex.keyword("false").map(|()| false)?,
                    _ => return Err(lex.error("expected boolean")),
                }),
                "Date" => PropertyValue::Date(date(lex)?),
                "DateTime" => PropertyValue::DateTime(datetime(lex)?),
                "Str" => PropertyValue::Str(lex.str(&mut self.scratch)?.to_owned()),
                _ => return Err(lex.error("unrecognized PropertyValue variant")),
            });
            Ok(())
        })?;
        value.ok_or_else(|| lex.error("unrecognized PropertyValue variant"))
    }
}

fn u64_value(lex: &mut Lexer<'_>) -> Result<u64, DecodeError> {
    match lex.num()? {
        Num::U(n) => Ok(n),
        Num::I(_) => Err(lex.error("negative integer for unsigned field")),
        Num::F(_) => Err(lex.error("expected integer")),
    }
}

fn i64_value(lex: &mut Lexer<'_>) -> Result<i64, DecodeError> {
    match lex.num()? {
        Num::I(n) => Ok(n),
        Num::U(n) => i64::try_from(n).map_err(|_| lex.error("integer out of range")),
        Num::F(_) => Err(lex.error("expected integer")),
    }
}

fn u8_value(lex: &mut Lexer<'_>) -> Result<u8, DecodeError> {
    let wide = u64_value(lex)?;
    u8::try_from(wide).map_err(|_| lex.error("integer out of range"))
}

/// Derived-struct `Date`: integer range checks only, no calendar
/// validation (matching `from_value`, which fills fields directly).
fn date(lex: &mut Lexer<'_>) -> Result<Date, DecodeError> {
    let (mut year, mut month, mut day) = (None, None, None);
    lex.map(|lex, key| {
        match key {
            "year" if year.is_none() => {
                let wide = i64_value(lex)?;
                year = Some(i32::try_from(wide).map_err(|_| lex.error("integer out of range"))?);
            }
            "month" if month.is_none() => month = Some(u8_value(lex)?),
            "day" if day.is_none() => day = Some(u8_value(lex)?),
            _ => lex.skip_value()?,
        }
        Ok(())
    })?;
    match (year, month, day) {
        (Some(year), Some(month), Some(day)) => Ok(Date { year, month, day }),
        _ => Err(lex.error("missing Date field")),
    }
}

/// Derived-struct `DateTime`: a nested `Date` plus clock fields, again
/// with no semantic validation.
fn datetime(lex: &mut Lexer<'_>) -> Result<DateTime, DecodeError> {
    let (mut date_, mut hour, mut minute, mut second) = (None, None, None, None);
    lex.map(|lex, key| {
        match key {
            "date" if date_.is_none() => date_ = Some(date(lex)?),
            "hour" if hour.is_none() => hour = Some(u8_value(lex)?),
            "minute" if minute.is_none() => minute = Some(u8_value(lex)?),
            "second" if second.is_none() => second = Some(u8_value(lex)?),
            _ => lex.skip_value()?,
        }
        Ok(())
    })?;
    match (date_, hour, minute, second) {
        (Some(date), Some(hour), Some(minute), Some(second)) => Ok(DateTime {
            date,
            hour,
            minute,
            second,
        }),
        _ => Err(lex.error("missing DateTime field")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::sym;

    fn decode(line: &str) -> Result<Element, DecodeError> {
        JsonlDecoder::new().decode_element(line)
    }

    /// Both decoders must agree on accept/reject; on accept the
    /// elements must match (via their canonical re-serialization).
    fn assert_parity(line: &str) {
        let reference = serde_json::from_str::<Element>(line);
        let ours = decode(line);
        match (&reference, &ours) {
            (Ok(r), Ok(o)) => {
                // Debug-compare rather than re-serialize: the writer
                // rejects non-finite floats, which the read path accepts.
                assert_eq!(
                    format!("{r:?}"),
                    format!("{o:?}"),
                    "decoded elements differ for {line}"
                );
            }
            (Err(_), Err(_)) => {}
            _ => panic!(
                "acceptance divergence for {line}: reference={:?} ours={:?}",
                reference.as_ref().map(|_| ()),
                ours.as_ref().map(|_| ())
            ),
        }
    }

    #[test]
    fn decodes_canonical_node_line() {
        let line = r#"{"kind":"node","id":7,"labels":["Person","Student"],"props":{"age":{"Int":30},"name":{"Str":"A"}}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => {
                assert_eq!(n.id, NodeId(7));
                assert_eq!(n.labels.len(), 2);
                assert_eq!(n.props.get("age"), Some(&PropertyValue::Int(30)));
                assert_eq!(
                    n.props.get("name"),
                    Some(&PropertyValue::Str("A".to_owned()))
                );
            }
            other => panic!("expected node, got {other:?}"),
        }
        assert_parity(line);
    }

    #[test]
    fn decodes_edge_and_resolved_edge_lines() {
        let edge = r#"{"kind":"edge","id":9,"src":1,"tgt":2,"labels":["KNOWS"],"props":{}}"#;
        assert!(matches!(decode(edge).unwrap(), Element::Edge(_)));
        assert_parity(edge);
        let rec = r#"{"kind":"resolved_edge","edge":{"id":9,"src":1,"tgt":2,"labels":["KNOWS"],"props":{"w":{"Float":1.5}}},"src_labels":["Person"],"tgt_labels":["Org"]}"#;
        match decode(rec).unwrap() {
            Element::ResolvedEdge(r) => {
                assert_eq!(r.edge.id, EdgeId(9));
                assert_eq!(r.src_labels, LabelSet::single("Person"));
            }
            other => panic!("expected resolved edge, got {other:?}"),
        }
        assert_parity(rec);
    }

    #[test]
    fn kind_after_other_fields_is_deferred_and_replayed() {
        let line = r#"{"id":3,"labels":["X"],"kind":"node","props":{}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.id, NodeId(3)),
            other => panic!("{other:?}"),
        }
        assert_parity(line);
    }

    #[test]
    fn duplicate_struct_fields_are_first_wins() {
        let line = r#"{"kind":"node","id":1,"id":2,"labels":[],"props":{}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.id, NodeId(1)),
            other => panic!("{other:?}"),
        }
        assert_parity(line);
        // A later duplicate is only syntax-checked, so a type-invalid
        // duplicate still parses (matching the reference)...
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":{},"id":"x"}"#);
        // ...but a syntax-invalid one rejects.
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":{},"id":-}"#);
    }

    #[test]
    fn duplicate_prop_keys_are_last_wins() {
        let line = r#"{"kind":"node","id":1,"labels":[],"props":{"k":{"Int":1},"k":{"Int":2}}}"#;
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.props.get("k"), Some(&PropertyValue::Int(2))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pair_array_props_form_is_accepted() {
        let line =
            r#"{"kind":"node","id":1,"labels":[],"props":[["a",{"Int":1}],["b",{"Bool":true}]]}"#;
        match decode(line).unwrap() {
            Element::Node(n) => {
                assert_eq!(n.props.len(), 2);
                assert_eq!(n.props.get("b"), Some(&PropertyValue::Bool(true)));
            }
            other => panic!("{other:?}"),
        }
        assert_parity(line);
        // Wrong pair arity rejects, as in the reference.
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":[["a",{"Int":1},3]]}"#);
        assert_parity(r#"{"kind":"node","id":1,"labels":[],"props":[["a"]]}"#);
    }

    #[test]
    fn labels_preserve_wire_order_like_the_reference() {
        // The derived impl is transparent: no sort, no dedup on read.
        let line = r#"{"kind":"node","id":1,"labels":["Z","A","Z"],"props":{}}"#;
        let reference = match serde_json::from_str::<Element>(line).unwrap() {
            Element::Node(n) => n.labels,
            _ => unreachable!(),
        };
        let ours = match decode(line).unwrap() {
            Element::Node(n) => n.labels,
            _ => unreachable!(),
        };
        assert_eq!(ours, reference);
        let order: Vec<&str> = ours.iter().map(|s| s.as_ref()).collect();
        assert_eq!(order, ["Z", "A", "Z"]);
    }

    #[test]
    fn numeric_classification_matches_reference() {
        for (json, expect) in [
            (r#"{"Int":0}"#, Some(PropertyValue::Int(0))),
            (r#"{"Int":-0}"#, Some(PropertyValue::Int(0))),
            (
                r#"{"Int":-9223372036854775808}"#,
                Some(PropertyValue::Int(i64::MIN)),
            ),
            (
                r#"{"Int":9223372036854775807}"#,
                Some(PropertyValue::Int(i64::MAX)),
            ),
            (r#"{"Int":9223372036854775808}"#, None), // > i64::MAX
            (r#"{"Int":1.5}"#, None),
            (r#"{"Int":01}"#, Some(PropertyValue::Int(1))), // leading zero quirk
            (r#"{"Float":3}"#, Some(PropertyValue::Float(3.0))),
            (r#"{"Float":-0.0}"#, Some(PropertyValue::Float(-0.0))),
            (r#"{"Float":1.}"#, Some(PropertyValue::Float(1.0))), // "1." quirk
            (r#"{"Float":2e3}"#, Some(PropertyValue::Float(2000.0))),
            (
                r#"{"Float":18446744073709551615}"#,
                Some(PropertyValue::Float(u64::MAX as f64)),
            ),
            (
                r#"{"Float":1e999}"#,
                Some(PropertyValue::Float(f64::INFINITY)),
            ),
            (r#"{"Float":1e}"#, None),
            (r#"{"Bool":true}"#, Some(PropertyValue::Bool(true))),
            (r#"{"Bool":1}"#, None),
        ] {
            let line = format!(r#"{{"kind":"node","id":1,"labels":[],"props":{{"k":{json}}}}}"#);
            let got = decode(&line);
            match (&expect, &got) {
                (Some(want), Ok(Element::Node(n))) => {
                    let v = n.props.get("k").unwrap();
                    match (want, v) {
                        (PropertyValue::Float(a), PropertyValue::Float(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "{json}")
                        }
                        _ => assert_eq!(v, want, "{json}"),
                    }
                }
                (None, Err(_)) => {}
                other => panic!("unexpected outcome for {json}: {other:?}"),
            }
            assert_parity(&line);
        }
    }

    #[test]
    fn string_escapes_match_reference() {
        for s in [
            r#""plain""#,
            r#""tab\tand\nnewline""#,
            r#""quote \" backslash \\ solidus \/""#,
            r#""unicode Aé""#,
            r#""surrogate 😀""#,
            r#""radix quirk \u+abc""#, // from_str_radix accepts '+'
            "\"non-ascii é😀\"",
        ] {
            let line =
                format!(r#"{{"kind":"node","id":1,"labels":[],"props":{{"k":{{"Str":{s}}}}}}}"#);
            assert_parity(&line);
        }
        // Rejections: unpaired surrogate, truncated/invalid escapes.
        for s in [r#""\ud800""#, r#""\u12""#, r#""\q""#, r#""unterminated"#] {
            let line =
                format!(r#"{{"kind":"node","id":1,"labels":[],"props":{{"k":{{"Str":{s}}}}}}}"#);
            assert_parity(&line);
        }
    }

    #[test]
    fn escaped_keys_resolve_before_matching() {
        // An escaped key unescapes to "id"; the reference matches
        // unescaped keys, so must we.
        let line = "{\"kind\":\"node\",\"\\u0069d\":5,\"labels\":[],\"props\":{}}";
        match decode(line).unwrap() {
            Element::Node(n) => assert_eq!(n.id, NodeId(5)),
            other => panic!("{other:?}"),
        }
        assert_parity(line);
        // Same for an escaped variant tag (unescapes to "node").
        let tagged = "{\"kind\":\"no\\u0064e\",\"id\":1,\"labels\":[],\"props\":{}}";
        assert!(decode(tagged).is_ok());
        assert_parity(tagged);
    }

    #[test]
    fn date_and_datetime_fill_without_validation() {
        // month 13 / day 99 pass the reference's derived deserialize
        // (range checks only); match it.
        let line = r#"{"kind":"node","id":1,"labels":[],"props":{"d":{"Date":{"year":2024,"month":13,"day":99}}}}"#;
        assert!(decode(line).is_ok());
        assert_parity(line);
        // u8 overflow rejects.
        assert_parity(
            r#"{"kind":"node","id":1,"labels":[],"props":{"d":{"Date":{"year":2024,"month":300,"day":1}}}}"#,
        );
        let dt = r#"{"kind":"node","id":1,"labels":[],"props":{"t":{"DateTime":{"date":{"year":1999,"month":12,"day":19},"hour":23,"minute":59,"second":59}}}}"#;
        assert_parity(dt);
        match decode(dt).unwrap() {
            Element::Node(n) => {
                assert!(matches!(n.props.get("t"), Some(PropertyValue::DateTime(_))))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejections_match_reference() {
        for line in [
            "not json at all",
            "5",
            "[1]",
            "\"x\"",
            "null",
            "{}",
            r#"{"id":1,"labels":[],"props":{}}"#, // no kind
            r#"{"kind":"widget","id":1}"#,        // unknown variant
            r#"{"kind":5,"id":1,"labels":[],"props":{}}"#, // non-string kind
            r#"{"kind":"node","id":1,"labels":[],"props":{}}x"#, // trailing
            r#"{"kind":"node","id":1,"labels":[],"props":{}"#, // truncated
            r#"{"kind":"node","id":-1,"labels":[],"props":{}}"#, // negative id
            r#"{"kind":"node","id":1.0,"labels":[],"props":{}}"#, // float id
            r#"{"kind":"node","id":1,"labels":"x","props":{}}"#, // non-array labels
            r#"{"kind":"node","id":1,"labels":[1],"props":{}}"#, // non-string label
            r#"{"kind":"node","id":1,"labels":[],"props":5}"#, // non-map props
            r#"{"kind":"node","id":1,"labels":[],"props":{"k":5}}"#, // untagged value
            r#"{"kind":"node","id":1,"labels":[],"props":{"k":{"Int":1,"Int":2}}}"#, // two pairs
            r#"{"kind":"node","id":1,"labels":[],"props":{"k":{"Nope":1}}}"#, // unknown tag
            r#"{"kind":"node","id":1,"labels":[]}"#, // missing props
            r#"{"kind":"edge","id":1,"src":1,"labels":[],"props":{}}"#, // missing tgt
            r#"{"kind":"node","id":1,"labels":[],"props":{},"x":-}"#, // bad ignored value
            r#"{"kind":"node","id":1,"labels":[],"props":{},}"#, // trailing comma
        ] {
            assert!(decode(line).is_err(), "should reject: {line}");
            assert_parity(line);
        }
    }

    #[test]
    fn unknown_fields_are_ignored_but_syntax_checked() {
        let line = r#"{"extra":{"deep":[1,2,{"x":null}]},"kind":"node","id":1,"labels":[],"props":{},"more":"ok"}"#;
        assert!(decode(line).is_ok());
        assert_parity(line);
    }

    #[test]
    fn whitespace_everywhere_is_tolerated() {
        let line = " { \"kind\" : \"node\" ,\t\"id\" : 1 , \"labels\" : [ \"A\" , \"B\" ] , \"props\" : { \"k\" : { \"Int\" : 1 } } } ";
        assert!(decode(line).is_ok());
        assert_parity(line);
    }

    #[test]
    fn interner_pools_repeated_symbols_across_lines() {
        let mut d = JsonlDecoder::new();
        let a = match d
            .decode_element(
                r#"{"kind":"node","id":1,"labels":["Person"],"props":{"age":{"Int":1}}}"#,
            )
            .unwrap()
        {
            Element::Node(n) => n,
            _ => unreachable!(),
        };
        let b = match d
            .decode_element(
                r#"{"kind":"node","id":2,"labels":["Person"],"props":{"age":{"Int":2}}}"#,
            )
            .unwrap()
        {
            Element::Node(n) => n,
            _ => unreachable!(),
        };
        let la = a.labels.iter().next().unwrap();
        let lb = b.labels.iter().next().unwrap();
        assert!(std::sync::Arc::ptr_eq(la, lb), "labels must share one Arc");
        let ka = a.props.keys().next().unwrap();
        let kb = b.props.keys().next().unwrap();
        assert!(std::sync::Arc::ptr_eq(ka, kb), "keys must share one Arc");
        assert_eq!(d.interned_symbols(), 2);
        assert_eq!(*ka, sym("age"));
    }

    fn labels_of(d: &mut JsonlDecoder, line: &str) -> LabelSet {
        match d.decode_element(line).unwrap() {
            Element::Node(n) => n.labels,
            Element::Edge(e) => e.labels,
            Element::ResolvedEdge(r) => r.edge.labels,
        }
    }

    #[test]
    fn equal_label_arrays_share_one_allocation_across_lines() {
        let mut d = JsonlDecoder::new();
        let a = labels_of(
            &mut d,
            r#"{"kind":"node","id":1,"labels":["Person","Student"],"props":{}}"#,
        );
        let b = labels_of(
            &mut d,
            r#"{"kind":"node","id":2,"labels":["Person","Student"],"props":{"k":{"Int":1}}}"#,
        );
        assert!(a.ptr_eq(&b), "the second array is a refcount bump");
        assert_eq!(d.pooled_label_sets(), 1);
        // Across element kinds and fields too: the pool is the decoder's.
        let rec = r#"{"kind":"resolved_edge","edge":{"id":9,"src":1,"tgt":2,"labels":["KNOWS"],"props":{}},"src_labels":["Person","Student"],"tgt_labels":["Person","Student"]}"#;
        match d.decode_element(rec).unwrap() {
            Element::ResolvedEdge(r) => {
                assert!(r.src_labels.ptr_eq(&a) && r.tgt_labels.ptr_eq(&a));
                assert!(!r.edge.labels.ptr_eq(&a));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.pooled_label_sets(), 2);
        // An escaped spelling of the same labels is the same array.
        let escaped = labels_of(
            &mut d,
            "{\"kind\":\"node\",\"id\":3,\"labels\":[\"P\\u0065rson\",\"Student\"],\"props\":{}}",
        );
        assert!(escaped.ptr_eq(&a));
        // Unlabeled elements pool as well.
        let none = r#"{"kind":"node","id":4,"labels":[],"props":{}}"#;
        let (e1, e2) = (labels_of(&mut d, none), labels_of(&mut d, none));
        assert!(e1.ptr_eq(&e2) && e1.is_empty());
    }

    #[test]
    fn label_pool_keeps_wire_order_apart() {
        // `from_wire` is order-preserving, so the two orders are two
        // different label sets and must stay two pool entries.
        let mut d = JsonlDecoder::new();
        let ba = labels_of(
            &mut d,
            r#"{"kind":"node","id":1,"labels":["B","A"],"props":{}}"#,
        );
        let ab = labels_of(
            &mut d,
            r#"{"kind":"node","id":2,"labels":["A","B"],"props":{}}"#,
        );
        assert_ne!(ba, ab);
        let order = |s: &LabelSet| s.iter().map(|l| l.to_string()).collect::<Vec<_>>();
        assert_eq!(order(&ba), ["B", "A"]);
        assert_eq!(order(&ab), ["A", "B"]);
        assert_eq!(d.pooled_label_sets(), 2);
        // A prefix, a repeat and a superset are their own arrays.
        for (line, want) in [
            (r#"{"kind":"node","id":3,"labels":["A"],"props":{}}"#, 1),
            (r#"{"kind":"node","id":4,"labels":["A","A"],"props":{}}"#, 2),
            (
                r#"{"kind":"node","id":5,"labels":["A","B","C"],"props":{}}"#,
                3,
            ),
        ] {
            assert_eq!(labels_of(&mut d, line).len(), want);
        }
        assert_eq!(d.pooled_label_sets(), 5);
        // A line that fails after its labels parsed leaves the pool usable.
        assert!(d
            .decode_element(r#"{"kind":"node","id":6,"labels":["B","A"],"props":5}"#)
            .is_err());
        assert!(labels_of(
            &mut d,
            r#"{"kind":"node","id":7,"labels":["B","A"],"props":{}}"#
        )
        .ptr_eq(&ba));
    }

    #[test]
    fn props_scratch_does_not_leak_between_lines() {
        let mut d = JsonlDecoder::new();
        // Fails inside the second value: "a" is already in the scratch.
        assert!(d
            .decode_element(
                r#"{"kind":"node","id":1,"labels":[],"props":{"a":{"Int":1},"b":{"Int":x}}}"#
            )
            .is_err());
        match d
            .decode_element(r#"{"kind":"node","id":2,"labels":[],"props":{"z":{"Int":2},"c":{"Int":3},"z":{"Int":4}}}"#)
            .unwrap()
        {
            Element::Node(n) => {
                let got: Vec<(&str, &PropertyValue)> =
                    n.props.iter().map(|(k, v)| (k.as_ref(), v)).collect();
                assert_eq!(
                    got,
                    [("c", &PropertyValue::Int(3)), ("z", &PropertyValue::Int(4))],
                    "unsorted arrival, last wins, nothing from the failed line"
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
