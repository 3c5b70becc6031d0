//! Schema serialization (§4.5): PG-Schema declarations (LOOSE and
//! STRICT), XSD, and JSON.
//!
//! PG-Schema has no finalized concrete syntax; like the paper, we emit
//! both a LOOSE declaration (names and property keys only, tolerant of
//! deviation) and a STRICT one (data types, mandatory/optional markers,
//! cardinality annotations).

use pg_model::{DataType, EdgeType, NodeType, Presence, SchemaGraph};
use std::fmt::Write as _;

/// Strictness mode of the emitted PG-Schema declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaMode {
    /// Flexible: property lists are OPEN, no data types or constraints.
    Loose,
    /// Rigorous: data types, OPTIONAL markers, cardinality comments.
    Strict,
}

fn node_type_name(t: &NodeType, idx: usize) -> String {
    if t.labels.is_empty() {
        format!("abstractType{idx}")
    } else {
        let mut n: String = t
            .labels
            .iter()
            .map(|l| l.as_ref())
            .collect::<Vec<_>>()
            .join("_");
        n.push_str("Type");
        sanitize(&n)
    }
}

fn edge_type_name(t: &EdgeType, idx: usize) -> String {
    if t.labels.is_empty() {
        format!("abstractEdgeType{idx}")
    } else {
        let mut n: String = t
            .labels
            .iter()
            .map(|l| l.as_ref())
            .collect::<Vec<_>>()
            .join("_");
        n.push_str("Type");
        sanitize(&n)
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn label_spec(labels: &pg_model::LabelSet) -> String {
    labels
        .iter()
        .map(|l| l.as_ref())
        .collect::<Vec<_>>()
        .join(" & ")
}

fn dt_name(dt: Option<DataType>) -> &'static str {
    dt.map(DataType::gql_name).unwrap_or("ANY")
}

/// Render the schema as a PG-Schema `CREATE GRAPH TYPE` declaration.
pub fn to_pg_schema(schema: &SchemaGraph, mode: SchemaMode) -> String {
    let strictness = match mode {
        SchemaMode::Loose => "LOOSE",
        SchemaMode::Strict => "STRICT",
    };
    let mut out = String::new();
    let _ = writeln!(out, "CREATE GRAPH TYPE DiscoveredGraphType {strictness} {{");

    let mut first = true;
    for (i, t) in schema.node_types.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let name = node_type_name(t, i);
        let abstract_kw = if t.is_abstract { "ABSTRACT " } else { "" };
        let head = if t.labels.is_empty() {
            format!("  ({abstract_kw}{name}")
        } else {
            format!("  ({abstract_kw}{name} : {}", label_spec(&t.labels))
        };
        out.push_str(&head);
        write_props(&mut out, &t.properties, mode);
        out.push(')');
    }
    for (i, t) in schema.edge_types.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let name = edge_type_name(t, i);
        let src = if t.src_labels.is_empty() {
            String::new()
        } else {
            format!(":{}", label_spec(&t.src_labels))
        };
        let tgt = if t.tgt_labels.is_empty() {
            String::new()
        } else {
            format!(":{}", label_spec(&t.tgt_labels))
        };
        let _ = write!(out, "  ({src})-[{name} : {}", label_spec(&t.labels));
        write_props(&mut out, &t.properties, mode);
        let _ = write!(out, "]->({tgt})");
        if mode == SchemaMode::Strict {
            if let Some(c) = t.cardinality {
                let _ = write!(
                    out,
                    " /* cardinality {} (max_out={}, max_in={}) */",
                    c.class(),
                    c.max_out,
                    c.max_in
                );
            }
        }
    }
    out.push_str("\n}\n");
    out
}

fn write_props(
    out: &mut String,
    props: &std::collections::BTreeMap<pg_model::Symbol, pg_model::PropertySpec>,
    mode: SchemaMode,
) {
    if props.is_empty() {
        if mode == SchemaMode::Loose {
            out.push_str(" {OPEN}");
        }
        return;
    }
    out.push_str(" {");
    match mode {
        SchemaMode::Loose => {
            // LOOSE: key names only, plus OPEN to admit deviation.
            let keys: Vec<&str> = props.keys().map(|k| k.as_ref()).collect();
            let _ = write!(out, "{}", keys.join(", "));
            out.push_str(", OPEN");
        }
        SchemaMode::Strict => {
            let mut first = true;
            for (k, spec) in props {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                if spec.presence == Some(Presence::Optional) {
                    out.push_str("OPTIONAL ");
                }
                let _ = write!(out, "{k} {}", dt_name(spec.datatype));
            }
        }
    }
    out.push('}');
}

/// Render the schema as an XML Schema document: one `xs:element` per node
/// type and per edge type, properties as child elements with
/// `minOccurs="0"` for optionals.
pub fn to_xsd(schema: &SchemaGraph) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    for (i, t) in schema.node_types.iter().enumerate() {
        let name = node_type_name(t, i);
        let _ = writeln!(out, "  <xs:element name=\"{name}\">");
        out.push_str("    <xs:complexType>\n      <xs:sequence>\n");
        for (k, spec) in &t.properties {
            let min = if spec.presence == Some(Presence::Mandatory) {
                1
            } else {
                0
            };
            let _ = writeln!(
                out,
                "        <xs:element name=\"{}\" type=\"{}\" minOccurs=\"{min}\"/>",
                xml_escape(k),
                spec.datatype.unwrap_or(DataType::Str).xsd_name()
            );
        }
        out.push_str("      </xs:sequence>\n");
        let _ = writeln!(
            out,
            "      <xs:attribute name=\"labels\" type=\"xs:string\" fixed=\"{}\"/>",
            xml_escape(&label_spec(&t.labels))
        );
        out.push_str("    </xs:complexType>\n  </xs:element>\n");
    }
    for (i, t) in schema.edge_types.iter().enumerate() {
        let name = edge_type_name(t, i);
        let _ = writeln!(out, "  <xs:element name=\"{name}\">");
        out.push_str("    <xs:complexType>\n      <xs:sequence>\n");
        for (k, spec) in &t.properties {
            let min = if spec.presence == Some(Presence::Mandatory) {
                1
            } else {
                0
            };
            let _ = writeln!(
                out,
                "        <xs:element name=\"{}\" type=\"{}\" minOccurs=\"{min}\"/>",
                xml_escape(k),
                spec.datatype.unwrap_or(DataType::Str).xsd_name()
            );
        }
        out.push_str("      </xs:sequence>\n");
        let _ = writeln!(
            out,
            "      <xs:attribute name=\"source\" type=\"xs:string\" fixed=\"{}\"/>",
            xml_escape(&label_spec(&t.src_labels))
        );
        let _ = writeln!(
            out,
            "      <xs:attribute name=\"target\" type=\"xs:string\" fixed=\"{}\"/>",
            xml_escape(&label_spec(&t.tgt_labels))
        );
        out.push_str("    </xs:complexType>\n  </xs:element>\n");
    }
    out.push_str("</xs:schema>\n");
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Render the schema as pretty-printed JSON (lossless; pairs with
/// `serde_json::from_str::<SchemaGraph>` for round-tripping).
pub fn to_json(schema: &SchemaGraph) -> String {
    serde_json::to_string_pretty(schema).expect("schema is serializable")
}

/// A canonical, order-independent textual form of a schema.
///
/// Two schemas that describe the same types produce the same canonical
/// form even when their `TypeId`s or the order of their type vectors
/// differ — both are artifacts of discovery order (batch arrival,
/// cluster enumeration), not of the schema itself. Concretely:
///
/// * `TypeId`s are dropped.
/// * Node types are sorted by `(labels, property keys, is_abstract)`;
///   edge types by `(labels, src, tgt, property keys, is_abstract)`.
/// * Everything semantically meaningful is kept: label sets, property
///   specs (datatype + presence), abstractness, instance counts, and
///   cardinality bounds — all of which are computed from commutative
///   accumulators, so they agree across batchings and thread counts.
pub fn canonical_form(schema: &SchemaGraph) -> String {
    let mut node_lines: Vec<String> = schema.node_types.iter().map(node_line).collect();
    node_lines.sort();
    let mut edge_lines: Vec<String> = schema.edge_types.iter().map(edge_line).collect();
    edge_lines.sort();

    let mut out = String::from("pg-hive schema v1\n");
    for l in node_lines.into_iter().chain(edge_lines) {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

fn canonical_props(
    out: &mut String,
    props: &std::collections::BTreeMap<pg_model::Symbol, pg_model::PropertySpec>,
) {
    out.push_str(" props=[");
    let mut first = true;
    for (k, spec) in props {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{}:{}:{}",
            k,
            spec.datatype.map(DataType::gql_name).unwrap_or("?"),
            match spec.presence {
                Some(Presence::Mandatory) => "man",
                Some(Presence::Optional) => "opt",
                None => "?",
            }
        );
    }
    out.push(']');
}

fn canonical_labels(set: &pg_model::LabelSet) -> String {
    set.iter().map(|l| l.as_ref()).collect::<Vec<_>>().join("|")
}

/// One node type's line of the [`canonical_form`] — also the canonical
/// sort key the distributed merge renumbers types by, so merged schemas
/// come out in exactly the order their canonical form lists them.
pub(crate) fn node_line(t: &pg_model::NodeType) -> String {
    let mut line = format!(
        "node labels=[{}] abstract={} count={}",
        canonical_labels(&t.labels),
        t.is_abstract,
        t.instance_count
    );
    canonical_props(&mut line, &t.properties);
    line
}

/// One edge type's line of the [`canonical_form`] (see [`node_line`]).
pub(crate) fn edge_line(t: &pg_model::EdgeType) -> String {
    let mut line = format!(
        "edge labels=[{}] src=[{}] tgt=[{}] abstract={} count={} card={}",
        canonical_labels(&t.labels),
        canonical_labels(&t.src_labels),
        canonical_labels(&t.tgt_labels),
        t.is_abstract,
        t.instance_count,
        t.cardinality
            .map(|c| format!("{}:{}", c.max_out, c.max_in))
            .unwrap_or_else(|| "?".to_owned()),
    );
    canonical_props(&mut line, &t.properties);
    line
}

/// Stable 64-bit content hash of a schema: FNV-1a over
/// [`canonical_form`]. Equal for semantically equal schemas regardless
/// of thread count, batch split, or ingestion order (see the module
/// tests and `crates/server`'s equivalence suite); stable across
/// processes and platforms.
pub fn content_hash(schema: &SchemaGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical_form(schema).as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`content_hash`] rendered as 16 lowercase hex digits — the form used
/// in ETags, the CLI `hash` subcommand, and persisted version history.
pub fn content_hash_hex(schema: &SchemaGraph) -> String {
    format!("{:016x}", content_hash(schema))
}

/// One retained entry of a [`SchemaHistory`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SchemaVersion {
    /// Monotone version number (1-based; never reused or rewound).
    pub version: u64,
    /// [`content_hash_hex`] of `schema`.
    pub hash: String,
    /// The schema as of this version.
    pub schema: SchemaGraph,
}

/// A monotone, content-addressed version history of a discovery
/// session's schema.
///
/// [`SchemaHistory::observe`] assigns a fresh version number only when
/// the content hash actually changes, so pollers see a counter that
/// moves exactly when the schema does (ETag semantics), and
/// `diff?from=v` can be answered for any still-retained version. At
/// most `retain` versions are kept; asking for an evicted one is
/// distinguishable from asking for one that never existed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SchemaHistory {
    versions: Vec<SchemaVersion>,
    next_version: u64,
    retain: usize,
}

impl SchemaHistory {
    /// An empty history retaining at most `retain` versions (min 1).
    pub fn new(retain: usize) -> SchemaHistory {
        SchemaHistory {
            versions: Vec::new(),
            next_version: 1,
            retain: retain.max(1),
        }
    }

    /// Record the current schema. Returns `(version, changed)`: the
    /// version now current and whether this observation created it.
    pub fn observe(&mut self, schema: &SchemaGraph) -> (u64, bool) {
        let hash = content_hash_hex(schema);
        if let Some(last) = self.versions.last() {
            if last.hash == hash {
                return (last.version, false);
            }
        }
        let version = self.next_version;
        self.next_version += 1;
        self.versions.push(SchemaVersion {
            version,
            hash,
            schema: schema.clone(),
        });
        if self.versions.len() > self.retain {
            let excess = self.versions.len() - self.retain;
            self.versions.drain(..excess);
        }
        (version, true)
    }

    /// The current (latest) version entry, if any schema was observed.
    pub fn current(&self) -> Option<&SchemaVersion> {
        self.versions.last()
    }

    /// The current version number (0 before the first observation).
    pub fn version(&self) -> u64 {
        self.versions.last().map(|v| v.version).unwrap_or(0)
    }

    /// Look up a retained version by number.
    pub fn get(&self, version: u64) -> Option<&SchemaVersion> {
        self.versions.iter().find(|v| v.version == version)
    }

    /// Whether `version` was ever assigned (even if since evicted).
    pub fn existed(&self, version: u64) -> bool {
        version >= 1 && version < self.next_version
    }

    /// Number of retained versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether no version was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Check a history read back from disk: version numbers start at 1,
    /// strictly increase and stay below `next_version`, which still has
    /// room to count, and at least one version is retained.
    pub fn validate(&self) -> Result<(), String> {
        let mut floor = 0;
        for v in &self.versions {
            if v.version <= floor {
                return Err(format!("version {} does not follow {floor}", v.version));
            }
            floor = v.version;
        }
        if floor >= self.next_version || self.next_version == u64::MAX {
            return Err(format!(
                "next version {} is out of range",
                self.next_version
            ));
        }
        if self.retain == 0 {
            return Err("history retains no version".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{Cardinality, LabelSet, PropertySpec, TypeId};

    fn sample_schema() -> SchemaGraph {
        let mut s = SchemaGraph::new();
        let mut person = NodeType::new(
            TypeId(0),
            LabelSet::single("Person"),
            ["name", "age"].iter().map(|k| pg_model::sym(k)),
        );
        person.properties.insert(
            pg_model::sym("name"),
            PropertySpec {
                datatype: Some(DataType::Str),
                presence: Some(Presence::Mandatory),
            },
        );
        person.properties.insert(
            pg_model::sym("age"),
            PropertySpec {
                datatype: Some(DataType::Int),
                presence: Some(Presence::Optional),
            },
        );
        s.push_node_type(person);
        let mut abs = NodeType::new(TypeId(0), LabelSet::empty(), std::iter::empty());
        abs.is_abstract = true;
        s.push_node_type(abs);
        let mut knows = EdgeType::new(
            TypeId(0),
            LabelSet::single("KNOWS"),
            [pg_model::sym("since")],
            LabelSet::single("Person"),
            LabelSet::single("Person"),
        );
        knows.cardinality = Some(Cardinality {
            max_out: 5,
            max_in: 7,
        });
        s.push_edge_type(knows);
        s
    }

    #[test]
    fn strict_mode_includes_types_and_optionals() {
        let text = to_pg_schema(&sample_schema(), SchemaMode::Strict);
        assert!(text.contains("STRICT"));
        assert!(text.contains("name STRING"));
        assert!(text.contains("OPTIONAL age INT"));
        assert!(text.contains("cardinality M:N"));
        assert!(text.contains("ABSTRACT"));
        assert!(text.contains("(:Person)-[KNOWSType : KNOWS"));
    }

    #[test]
    fn loose_mode_omits_types_and_stays_open() {
        let text = to_pg_schema(&sample_schema(), SchemaMode::Loose);
        assert!(text.contains("LOOSE"));
        assert!(text.contains("OPEN"));
        assert!(!text.contains("STRING"));
        assert!(!text.contains("OPTIONAL"));
    }

    #[test]
    fn xsd_is_wellformed_enough() {
        let xsd = to_xsd(&sample_schema());
        assert!(xsd.starts_with("<?xml"));
        assert!(xsd.contains("<xs:element name=\"PersonType\">"));
        assert!(xsd.contains("type=\"xs:long\""));
        assert!(xsd.contains("minOccurs=\"0\""));
        assert!(xsd.contains("minOccurs=\"1\""));
        // Balanced tags (crude check): every open element is either
        // self-closed or explicitly closed.
        let opened = xsd.matches("<xs:element").count();
        let closed = xsd.matches("</xs:element>").count();
        let self_closed = xsd.matches("<xs:element name=").count()
            - xsd.matches("<xs:element name=\"PersonType\">").count()
            - xsd.matches("<xs:element name=\"abstractType1\">").count()
            - xsd.matches("<xs:element name=\"KNOWSType\">").count();
        assert_eq!(opened, closed + self_closed);
        assert!(xsd.ends_with("</xs:schema>\n"));
    }

    #[test]
    fn json_round_trips() {
        let s = sample_schema();
        let text = to_json(&s);
        let back: SchemaGraph = serde_json::from_str(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn content_hash_ignores_type_ids_and_order() {
        let a = sample_schema();
        // Same types, different vector order and different TypeIds.
        let mut b = a.clone();
        b.node_types.reverse();
        for (i, t) in b.node_types.iter_mut().enumerate() {
            t.id = TypeId(90 + i as u32);
        }
        b.edge_types[0].id = TypeId(77);
        assert_ne!(a, b, "structurally different representations");
        assert_eq!(canonical_form(&a), canonical_form(&b));
        assert_eq!(content_hash(&a), content_hash(&b));

        // Any semantic change moves the hash.
        let mut c = a.clone();
        c.node_types[0].properties.insert(
            pg_model::sym("email"),
            PropertySpec {
                datatype: Some(DataType::Str),
                presence: Some(Presence::Optional),
            },
        );
        assert_ne!(content_hash(&a), content_hash(&c));
        let mut d = a.clone();
        d.edge_types[0].cardinality = Some(Cardinality {
            max_out: 6,
            max_in: 7,
        });
        assert_ne!(content_hash(&a), content_hash(&d));
    }

    #[test]
    fn content_hash_is_stable_across_processes() {
        // Pinned value: the hash is persisted (ETags, version history,
        // CI restart checks), so accidental algorithm changes must fail
        // loudly rather than silently invalidate stored state.
        assert_eq!(content_hash_hex(&SchemaGraph::new()), "158e42a825006d8d");
    }

    #[test]
    fn content_hash_equal_across_thread_counts() {
        // Discover the same graph with 1 and 4 worker threads: the
        // schemas are semantically equal, so the content hashes agree.
        let g = crate::fixtures::figure1();
        let discover = |threads: usize| {
            crate::pipeline::PgHive::new(crate::config::HiveConfig::default().with_threads(threads))
                .discover_graph(&g)
                .schema
        };
        let h1 = content_hash(&discover(1));
        let h4 = content_hash(&discover(4));
        assert_eq!(h1, h4);
    }

    #[test]
    fn history_counter_is_monotone_and_content_addressed() {
        let mut hist = SchemaHistory::new(8);
        assert_eq!(hist.version(), 0);
        assert!(hist.is_empty());

        let a = sample_schema();
        let (v1, changed) = hist.observe(&a);
        assert!(changed);
        assert_eq!(v1, 1);
        // Re-observing an unchanged schema does not mint a version.
        let (v1b, changed) = hist.observe(&a);
        assert!(!changed);
        assert_eq!(v1b, 1);
        assert_eq!(hist.len(), 1);

        let mut b = a.clone();
        b.node_types[0].instance_count += 1;
        let (v2, changed) = hist.observe(&b);
        assert!(changed);
        assert_eq!(v2, 2);
        assert_eq!(hist.current().unwrap().version, 2);
        assert_eq!(hist.get(1).unwrap().schema, a);
        assert_eq!(hist.get(1).unwrap().hash, content_hash_hex(&a));
        assert!(hist.existed(2));
        assert!(!hist.existed(3));
    }

    #[test]
    fn history_eviction_keeps_the_counter_monotone() {
        let mut hist = SchemaHistory::new(2);
        let mut s = SchemaGraph::new();
        for i in 0..5u32 {
            s.push_node_type(NodeType::new(
                TypeId(0),
                LabelSet::single(&format!("T{i}")),
                std::iter::empty(),
            ));
            hist.observe(&s);
        }
        assert_eq!(hist.version(), 5);
        assert_eq!(hist.len(), 2, "older versions evicted");
        assert!(hist.get(1).is_none());
        assert!(hist.existed(1), "evicted, but it did exist");
        assert!(hist.get(5).is_some());

        // Round-trips through JSON (persisted in server state dirs).
        let json = serde_json::to_string(&hist).unwrap();
        let back: SchemaHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(hist, back);
        // The counter survives the round trip: the next change is 6.
        let mut hist = back;
        s.push_node_type(NodeType::new(
            TypeId(0),
            LabelSet::single("T9"),
            std::iter::empty(),
        ));
        let (v, _) = hist.observe(&s);
        assert_eq!(v, 6);
    }

    #[test]
    fn names_are_sanitized() {
        let mut s = SchemaGraph::new();
        s.push_node_type(NodeType::new(
            TypeId(0),
            LabelSet::single("Weird Label-With:Chars"),
            std::iter::empty(),
        ));
        let text = to_pg_schema(&s, SchemaMode::Strict);
        assert!(text.contains("Weird_Label_With_CharsType"));
    }
}
