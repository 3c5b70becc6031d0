//! CSV import/export of property graphs.
//!
//! The paper's datasets ship as CSV dumps (e.g. the neuPrint and LDBC
//! exports). This module reads/writes a wide CSV layout:
//!
//! * `nodes.csv`: `id,labels,<key1>,<key2>,…` — one column per distinct
//!   property key; empty cells mean the property is absent; labels are
//!   `;`-separated inside one cell.
//! * `edges.csv`: `id,src,tgt,labels,<key1>,…`.
//!
//! Values are rendered with [`pg_model::PropertyValue::render`] and
//! re-typed on load with [`pg_model::PropertyValue::infer`], mirroring how
//! the paper ingests untyped CSV values and infers data types later.
//!
//! Parsing is record-aware, not line-aware: quoted fields may contain
//! embedded newlines (RFC 4180), and every error carries the 1-based
//! physical line number where the offending record *starts*. Besides the
//! fail-fast [`graph_from_csv`], a lenient entry point
//! [`graph_from_csv_with_policy`] diverts malformed rows to a
//! [`Quarantine`] report under an [`ErrorPolicy`] instead of aborting
//! the whole load.

use crate::ingest::{ErrorPolicy, Quarantine};
use pg_model::{
    Edge, LabelSet, ModelError, Node, NodeId, PropertyGraph, PropertyValue, Symbol, SymbolInterner,
};
use std::fmt::Write as _;

/// Escape one CSV field (RFC-4180 style quoting).
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut s = String::with_capacity(field.len() + 2);
        s.push('"');
        for c in field.chars() {
            if c == '"' {
                s.push('"');
            }
            s.push(c);
        }
        s.push('"');
        s
    } else {
        field.to_owned()
    }
}

/// One raw CSV record: where it starts, its raw text, and its parsed
/// fields (or why field-splitting failed).
struct RawRecord {
    /// 1-based physical line number of the record's first line.
    line: usize,
    /// Raw record text (without the terminating newline).
    raw: String,
    /// Parsed fields, or a parse failure (unterminated quote).
    fields: Result<Vec<String>, String>,
}

/// Split CSV text into records, honoring quotes: a newline inside a
/// quoted field continues the record instead of terminating it. Blank
/// records are skipped. Never fails as a whole — a malformed record is
/// reported in its own `fields` slot so lenient callers can quarantine
/// it and keep going.
fn split_records(text: &str) -> Vec<RawRecord> {
    let mut records = Vec::new();
    let mut start_line = 1usize;
    let mut line = 1usize;
    let mut raw = String::new();
    let mut fields: Vec<String> = Vec::new();
    let mut cur = String::new();
    // How much of `cur` a closed quote holds: a carriage return in there
    // is data, not half of a CRLF.
    let mut quoted_len = 0;
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();

    macro_rules! finish_record {
        () => {{
            // A record is blank if it has no fields yet and the pending
            // text is only whitespace (matches the old `lines()` filter).
            if !(fields.is_empty() && raw.trim().is_empty()) {
                fields.push(std::mem::take(&mut cur));
                records.push(RawRecord {
                    line: start_line,
                    raw: std::mem::take(&mut raw),
                    fields: Ok(std::mem::take(&mut fields)),
                });
            } else {
                raw.clear();
                cur.clear();
            }
        }};
    }

    while let Some(c) = chars.next() {
        if c == '\n' {
            line += 1;
        }
        if in_quotes {
            raw.push(c);
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        cur.push('"');
                        raw.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                        quoted_len = cur.len();
                    }
                }
                _ => cur.push(c),
            }
        } else {
            match c {
                '\n' => {
                    // Strip a CRLF's carriage return from both the field
                    // and the raw excerpt.
                    if cur.len() > quoted_len && cur.ends_with('\r') {
                        cur.pop();
                    }
                    if raw.ends_with('\r') {
                        raw.pop();
                    }
                    finish_record!();
                    quoted_len = 0;
                    start_line = line;
                }
                '"' if cur.is_empty() => {
                    in_quotes = true;
                    raw.push(c);
                }
                ',' => {
                    raw.push(c);
                    fields.push(std::mem::take(&mut cur));
                    quoted_len = 0;
                }
                _ => {
                    raw.push(c);
                    cur.push(c);
                }
            }
        }
    }
    if in_quotes {
        records.push(RawRecord {
            line: start_line,
            raw,
            fields: Err("unterminated quote".into()),
        });
    } else if !(fields.is_empty() && raw.trim().is_empty()) {
        finish_record!();
    }
    records
}

/// Serialize the nodes of a graph to CSV.
pub fn nodes_to_csv(graph: &PropertyGraph) -> String {
    let keys = graph.node_property_keys();
    let mut out = String::new();
    out.push_str("id,labels");
    for k in &keys {
        let _ = write!(out, ",{}", escape(k));
    }
    out.push('\n');
    for n in graph.nodes() {
        let labels = n
            .labels
            .iter()
            .map(|l| l.as_ref())
            .collect::<Vec<_>>()
            .join(";");
        let _ = write!(out, "{},{}", n.id.0, escape(&labels));
        for k in &keys {
            out.push(',');
            if let Some(v) = n.props.get(k) {
                out.push_str(&escape(&v.render()));
            }
        }
        out.push('\n');
    }
    out
}

/// Serialize the edges of a graph to CSV.
pub fn edges_to_csv(graph: &PropertyGraph) -> String {
    let keys = graph.edge_property_keys();
    let mut out = String::new();
    out.push_str("id,src,tgt,labels");
    for k in &keys {
        let _ = write!(out, ",{}", escape(k));
    }
    out.push('\n');
    for e in graph.edges() {
        let labels = e
            .labels
            .iter()
            .map(|l| l.as_ref())
            .collect::<Vec<_>>()
            .join(";");
        let _ = write!(
            out,
            "{},{},{},{}",
            e.id.0,
            e.src.0,
            e.tgt.0,
            escape(&labels)
        );
        for k in &keys {
            out.push(',');
            if let Some(v) = e.props.get(k) {
                out.push_str(&escape(&v.render()));
            }
        }
        out.push('\n');
    }
    out
}

/// Parse a `;`-separated label cell through the per-load interner so
/// repeated labels share one allocation across the whole file. Empty
/// segments (`;`, `A;;B`) name no label: the writer could not tell an
/// empty label from none.
fn parse_labels(interner: &mut SymbolInterner, cell: &str) -> LabelSet {
    let labels: Vec<Symbol> = (cell.split(';').filter(|l| !l.is_empty()))
        .map(|l| interner.intern(l))
        .collect();
    if labels.is_empty() {
        LabelSet::empty()
    } else {
        LabelSet::from_symbols(labels)
    }
}

/// Validate a header: required leading columns present, no duplicates.
/// Returns the header fields on success.
fn check_header(
    source: &str,
    rec: &RawRecord,
    required: &[&str],
) -> Result<Vec<String>, ModelError> {
    let cols = match &rec.fields {
        Ok(f) => f.clone(),
        Err(reason) => {
            return Err(ModelError::Parse {
                message: format!("{source} line {}: {reason}", rec.line),
            })
        }
    };
    if cols.len() < required.len() || cols.iter().zip(required).any(|(c, r)| c != r) {
        return Err(ModelError::Parse {
            message: format!(
                "{source} line {}: header must start with {}",
                rec.line,
                required.join(",")
            ),
        });
    }
    // Duplicate detection covers the property columns. A property may
    // share a *reserved* column's name (the paper's POLE dump has a
    // property literally called "id") — positions disambiguate those —
    // but two identically-named property columns are unresolvable.
    let mut seen = std::collections::HashSet::new();
    for c in &cols[required.len()..] {
        if !seen.insert(c.as_str()) {
            return Err(ModelError::Parse {
                message: format!("{source} line {}: duplicate header column {c:?}", rec.line),
            });
        }
    }
    Ok(cols)
}

/// The per-record outcome of the shared row walker.
enum RowOutcome<T> {
    Parsed(T),
    Bad { line: usize, reason: String },
}

/// Parse one data record against the header, mapping any failure to a
/// line-numbered reason.
fn parse_row<T>(
    cols: &[String],
    rec: &RawRecord,
    build: impl FnOnce(&[String]) -> Result<T, String>,
) -> RowOutcome<T> {
    let fields = match &rec.fields {
        Ok(f) => f,
        Err(reason) => {
            return RowOutcome::Bad {
                line: rec.line,
                reason: reason.clone(),
            }
        }
    };
    if fields.len() != cols.len() {
        return RowOutcome::Bad {
            line: rec.line,
            reason: format!("row has {} fields, expected {}", fields.len(), cols.len()),
        };
    }
    match build(fields) {
        Ok(t) => RowOutcome::Parsed(t),
        Err(reason) => RowOutcome::Bad {
            line: rec.line,
            reason,
        },
    }
}

/// Parse a graph from node and edge CSVs produced by [`nodes_to_csv`] /
/// [`edges_to_csv`]. Fail-fast: the first malformed row aborts with a
/// line-numbered [`ModelError`].
pub fn graph_from_csv(nodes_csv: &str, edges_csv: &str) -> Result<PropertyGraph, ModelError> {
    graph_from_csv_with_policy(nodes_csv, edges_csv, ErrorPolicy::Strict).map(|(g, _)| g)
}

/// Parse a graph from node and edge CSVs under an [`ErrorPolicy`].
/// Malformed rows are diverted to the returned [`Quarantine`] (which
/// records `nodes.csv`/`edges.csv` as the source); header errors are
/// always fatal because nothing after a broken header is interpretable.
/// Edges whose endpoints are missing — including endpoints that were
/// themselves quarantined — are quarantined as dangling.
pub fn graph_from_csv_with_policy(
    nodes_csv: &str,
    edges_csv: &str,
    policy: ErrorPolicy,
) -> Result<(PropertyGraph, Quarantine), ModelError> {
    let mut graph = PropertyGraph::new();
    let mut quarantine = Quarantine::new();
    let mut interner = SymbolInterner::new();

    let node_records = split_records(nodes_csv);
    if let Some((header, rows)) = node_records.split_first() {
        let cols = check_header("nodes.csv", header, &["id", "labels"])?;
        // Intern every header column once; rows then clone the pooled
        // symbol instead of re-allocating the key string per cell.
        let col_syms: Vec<Symbol> = cols.iter().map(|c| interner.intern(c)).collect();
        graph.reserve(rows.len(), 0);
        for rec in rows {
            let outcome = parse_row(&cols, rec, |fields| {
                let id: u64 = fields[0]
                    .parse()
                    .map_err(|_| format!("bad node id {:?}", fields[0]))?;
                let mut node = Node::new(id, parse_labels(&mut interner, &fields[1]));
                for (col, val) in col_syms.iter().zip(fields).skip(2) {
                    if !val.is_empty() {
                        node.props.insert(col.clone(), PropertyValue::infer(val));
                    }
                }
                Ok(node)
            });
            match outcome {
                RowOutcome::Parsed(node) => {
                    if let Err(e) = graph.add_node(node) {
                        quarantine.divert(
                            policy,
                            "nodes.csv",
                            rec.line,
                            e.to_string(),
                            &rec.raw,
                        )?;
                    }
                }
                RowOutcome::Bad { line, reason } => {
                    quarantine.divert(policy, "nodes.csv", line, reason, &rec.raw)?;
                }
            }
        }
    }

    let edge_records = split_records(edges_csv);
    if let Some((header, rows)) = edge_records.split_first() {
        let cols = check_header("edges.csv", header, &["id", "src", "tgt", "labels"])?;
        let col_syms: Vec<Symbol> = cols.iter().map(|c| interner.intern(c)).collect();
        graph.reserve(0, rows.len());
        for rec in rows {
            let outcome = parse_row(&cols, rec, |fields| {
                let parse_u64 = |s: &str| -> Result<u64, String> {
                    s.parse().map_err(|_| format!("bad id {s:?}"))
                };
                let mut edge = Edge::new(
                    parse_u64(&fields[0])?,
                    NodeId(parse_u64(&fields[1])?),
                    NodeId(parse_u64(&fields[2])?),
                    parse_labels(&mut interner, &fields[3]),
                );
                for (col, val) in col_syms.iter().zip(fields).skip(4) {
                    if !val.is_empty() {
                        edge.props.insert(col.clone(), PropertyValue::infer(val));
                    }
                }
                Ok(edge)
            });
            match outcome {
                RowOutcome::Parsed(edge) => {
                    if let Err(e) = graph.add_edge(edge) {
                        quarantine.divert(
                            policy,
                            "edges.csv",
                            rec.line,
                            e.to_string(),
                            &rec.raw,
                        )?;
                    }
                }
                RowOutcome::Bad { line, reason } => {
                    quarantine.divert(policy, "edges.csv", line, reason, &rec.raw)?;
                }
            }
        }
    }

    Ok((graph, quarantine))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_node(
            Node::new(1, LabelSet::from_iter(["Person", "Student"]))
                .with_prop("name", "Alice, \"the\" brave")
                .with_prop("age", 30i64),
        )
        .unwrap();
        g.add_node(Node::new(2, LabelSet::single("Org")).with_prop("url", "x.org"))
            .unwrap();
        g.add_edge(
            Edge::new(9, NodeId(1), NodeId(2), LabelSet::single("WORKS_AT"))
                .with_prop("from", 2020i64),
        )
        .unwrap();
        g
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample();
        let n = nodes_to_csv(&g);
        let e = edges_to_csv(&g);
        let g2 = graph_from_csv(&n, &e).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        let alice = g2.node(NodeId(1)).unwrap();
        assert_eq!(alice.labels, LabelSet::from_iter(["Person", "Student"]));
        assert_eq!(
            alice.props.get("name"),
            Some(&PropertyValue::Str("Alice, \"the\" brave".into()))
        );
        assert_eq!(alice.props.get("age"), Some(&PropertyValue::Int(30)));
        let w = g2.edge(pg_model::EdgeId(9)).unwrap();
        assert_eq!(w.props.get("from"), Some(&PropertyValue::Int(2020)));
    }

    #[test]
    fn quoting_is_rfc4180() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        let recs = split_records("a,\"b,c\",\"d\"\"e\"");
        assert_eq!(
            recs[0].fields.as_ref().unwrap(),
            &vec!["a".to_owned(), "b,c".into(), "d\"e".into()]
        );
        let recs = split_records("\"unterminated");
        assert!(recs[0].fields.is_err());
    }

    #[test]
    fn quoted_newlines_stay_inside_one_record() {
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::single("Person")).with_prop("bio", "line one\nline two"))
            .unwrap();
        let csv = nodes_to_csv(&g);
        assert!(csv.matches('\n').count() > 2, "newline embedded in a field");
        let g2 = graph_from_csv(&csv, "id,src,tgt,labels\n").unwrap();
        assert_eq!(
            g2.node(NodeId(1)).unwrap().props.get("bio"),
            Some(&PropertyValue::Str("line one\nline two".into()))
        );

        // Line numbers keep counting physical lines: the record after a
        // two-line quoted record starts two lines later.
        let nodes = "id,labels,bio\n1,P,\"a\nb\"\noops\n";
        let err = graph_from_csv(nodes, "id,src,tgt,labels\n").unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn bad_headers_are_rejected() {
        assert!(graph_from_csv("nope,labels\n", "id,src,tgt,labels\n").is_err());
        assert!(graph_from_csv("id,labels\n", "id,source,target,labels\n").is_err());
    }

    #[test]
    fn duplicate_header_columns_are_rejected() {
        let err = graph_from_csv("id,labels,name,name\n", "id,src,tgt,labels\n").unwrap_err();
        assert!(err.to_string().contains("duplicate header column"), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = graph_from_csv("id,labels\n", "id,src,tgt,labels,w,w\n").unwrap_err();
        assert!(err.to_string().contains("duplicate header column"), "{err}");
        // A property *sharing* a reserved column's name is fine (the
        // POLE dump has a property called "id") — positions
        // disambiguate — but repeating it as a property is not.
        let g = graph_from_csv("id,labels,id\n1,P,77\n", "id,src,tgt,labels\n").unwrap();
        assert_eq!(
            g.node(NodeId(1)).unwrap().props.get("id"),
            Some(&PropertyValue::Int(77))
        );
        let err = graph_from_csv("id,labels,id,id\n", "id,src,tgt,labels\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn row_width_mismatch_is_rejected_with_line_number() {
        let bad = "id,labels,name\n1,Person,ok\n2,Person\n";
        let err = graph_from_csv(bad, "id,src,tgt,labels\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("2 fields, expected 3"), "{msg}");
    }

    #[test]
    fn lenient_mode_quarantines_malformed_rows() {
        let nodes = "id,labels,name\n1,Person,Ada\nbogus,Person,x\n3,Person\n4,Person,Bob\n";
        let edges = "id,src,tgt,labels\n10,1,4,KNOWS\n11,1,999,KNOWS\n";
        let (g, q) = graph_from_csv_with_policy(nodes, edges, ErrorPolicy::Skip).unwrap();
        assert_eq!(g.node_count(), 2, "rows 2 and 4 survive");
        assert_eq!(g.edge_count(), 1, "dangling edge quarantined");
        let lines: Vec<(String, usize)> = q
            .entries()
            .iter()
            .map(|e| (e.source.clone(), e.line))
            .collect();
        assert_eq!(
            lines,
            vec![
                ("nodes.csv".to_owned(), 3),
                ("nodes.csv".to_owned(), 4),
                ("edges.csv".to_owned(), 3)
            ]
        );
        assert!(q.entries()[0].reason.contains("bad node id"), "{q:?}");
        assert!(q.entries()[2].reason.contains("unknown node"), "{q:?}");
    }

    #[test]
    fn lenient_mode_respects_cap() {
        let nodes = "id,labels\nx,P\ny,P\nz,P\n";
        let err = graph_from_csv_with_policy(nodes, "id,src,tgt,labels\n", ErrorPolicy::Cap(1))
            .unwrap_err();
        assert!(err.to_string().contains("cap of 1"), "{err}");
        let ok = graph_from_csv_with_policy(nodes, "id,src,tgt,labels\n", ErrorPolicy::Cap(3));
        assert!(ok.is_ok());
    }

    #[test]
    fn duplicate_node_rows_are_quarantined_not_fatal() {
        let nodes = "id,labels\n1,P\n1,P\n";
        let (g, q) =
            graph_from_csv_with_policy(nodes, "id,src,tgt,labels\n", ErrorPolicy::Skip).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(q.len(), 1);
        assert!(q.entries()[0].reason.contains("duplicate node"), "{q:?}");
    }

    #[test]
    fn empty_cells_mean_absent_properties() {
        let nodes = "id,labels,name,age\n1,Person,Bob,\n2,Person,,41\n";
        let g = graph_from_csv(nodes, "id,src,tgt,labels\n").unwrap();
        assert_eq!(g.node(NodeId(1)).unwrap().props.len(), 1);
        assert_eq!(g.node(NodeId(2)).unwrap().props.len(), 1);
        assert_eq!(
            g.node(NodeId(2)).unwrap().props.get("age"),
            Some(&PropertyValue::Int(41))
        );
    }

    /// Found by `tests/csv_mutations.rs`: a label cell of empty segments
    /// loaded as the label `""`, which writes back as no label at all.
    #[test]
    fn empty_label_segments_name_no_label() {
        let nodes = "id,labels\n1,;\n2,A;;B\n";
        let g = graph_from_csv(nodes, "id,src,tgt,labels\n").unwrap();
        assert_eq!(g.node(NodeId(1)).unwrap().labels, LabelSet::empty());
        assert_eq!(
            g.node(NodeId(2)).unwrap().labels,
            LabelSet::from_iter(["A", "B"])
        );
    }

    /// Found by `tests/csv_mutations.rs`: the CRLF rule took the carriage
    /// return a quoted last field ends with.
    #[test]
    fn a_quoted_carriage_return_ending_a_record_is_data() {
        let g = graph_from_csv("id,labels,x\n1,A,\"a\r\"\n", "id,src,tgt,labels\n").unwrap();
        assert_eq!(
            g.node(NodeId(1)).unwrap().props.get("x"),
            Some(&PropertyValue::Str("a\r".into()))
        );
        let again = graph_from_csv(&nodes_to_csv(&g), "id,src,tgt,labels\n").unwrap();
        assert_eq!(again.node(NodeId(1)), g.node(NodeId(1)));
    }

    #[test]
    fn crlf_line_endings_parse() {
        let nodes = "id,labels,name\r\n1,Person,Ada\r\n";
        let g = graph_from_csv(nodes, "id,src,tgt,labels\r\n").unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(
            g.node(NodeId(1)).unwrap().props.get("name"),
            Some(&PropertyValue::Str("Ada".into()))
        );
    }
}
