//! JSON-lines import/export: one JSON object per line, tagged as a node
//! or an edge. Lossless for all property value variants.

use crate::decode::JsonlDecoder;
use crate::ingest::{ErrorPolicy, Quarantine};
use crate::load::EdgeRecord;
use pg_model::{Edge, ModelError, Node, PropertyGraph};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, BufRead, Write};
use std::ops::Range;

/// Why a reader-based JSONL load aborted: the underlying reader failed,
/// or the [`ErrorPolicy`] rejected the input.
#[derive(Debug)]
pub enum LoadError {
    /// The reader itself failed (socket drop, disk error, …).
    Io(io::Error),
    /// The error policy aborted the load (Strict, or Cap exceeded).
    Policy(ModelError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "read failed: {e}"),
            LoadError::Policy(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// One line of a JSON-lines graph dump.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Element {
    /// A node line.
    Node(Node),
    /// An edge line.
    Edge(Edge),
    /// An edge whose endpoint labels were resolved upstream (by a
    /// router holding the global node index). Offline
    /// loaders treat it as a plain edge — the graph resolves endpoints
    /// itself; a live session applies the carried labels verbatim.
    ResolvedEdge(EdgeRecord),
}

/// Stream a graph as JSON-lines into `w` (nodes first, then edges, so a
/// stream consumer can insert in order without deferring edges). Unlike
/// [`to_jsonl`] this never materializes the whole dump in memory, and
/// write failures surface as `Err` instead of panicking.
pub fn write_jsonl<W: Write>(graph: &PropertyGraph, w: &mut W) -> io::Result<()> {
    let mut emit = |el: Element| -> io::Result<()> {
        let line = serde_json::to_string(&el)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")
    };
    for n in graph.nodes() {
        emit(Element::Node(n.clone()))?;
    }
    for e in graph.edges() {
        emit(Element::Edge(e.clone()))?;
    }
    Ok(())
}

/// Serialize a graph to a JSON-lines string. Thin wrapper over
/// [`write_jsonl`] into an in-memory buffer (which cannot fail on I/O).
pub fn to_jsonl(graph: &PropertyGraph) -> String {
    let mut buf = Vec::new();
    write_jsonl(graph, &mut buf).expect("in-memory JSONL serialization cannot fail");
    String::from_utf8(buf).expect("serde_json emits UTF-8")
}

/// Parse a JSON-lines dump. Edges may appear before their endpoints; they
/// are buffered and inserted after all nodes. Fail-fast: the first
/// malformed line aborts with a line-numbered [`ModelError`].
pub fn from_jsonl(text: &str) -> Result<PropertyGraph, ModelError> {
    from_jsonl_with_policy(text, ErrorPolicy::Strict).map(|(g, _)| g)
}

/// Iterate lines with their byte spans in `text`, matching
/// `str::lines()` semantics exactly: split on `\n`, strip one trailing
/// `\r` per line, final segment included even without a newline.
fn lines_with_spans(text: &str) -> impl Iterator<Item = (Range<usize>, &str)> {
    let bytes = text.as_bytes();
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start >= bytes.len() {
            return None;
        }
        let nl = bytes[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| start + i);
        let (mut end, next) = match nl {
            Some(i) => (i, i + 1),
            None => (bytes.len(), bytes.len()),
        };
        if end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        let span = start..end;
        start = next;
        Some((span.clone(), &text[span]))
    })
}

/// Parse a JSON-lines dump under an [`ErrorPolicy`]. Malformed lines are
/// diverted to the returned [`Quarantine`] (source `"jsonl"`), as are
/// duplicate elements and edges whose endpoints are missing — including
/// endpoints that were themselves quarantined.
///
/// Uses the zero-copy [`JsonlDecoder`]: one interner for the whole
/// dump, no intermediate `Value` tree, and pending edges keep only
/// `(lineno, byte span)` — the raw line is re-sliced from `text` only
/// if a quarantine divert actually needs it, instead of speculatively
/// cloning every edge line up front.
pub fn from_jsonl_with_policy(
    text: &str,
    policy: ErrorPolicy,
) -> Result<(PropertyGraph, Quarantine), ModelError> {
    let mut graph = PropertyGraph::new();
    let mut quarantine = Quarantine::new();
    let mut decoder = JsonlDecoder::new();
    // Pre-reserve at half the line count per element class: a mixed
    // node/edge dump fits exactly, and a single-class dump grows at
    // most once instead of rehashing its way up element by element.
    let line_count = text.as_bytes().iter().filter(|&&b| b == b'\n').count() + 1;
    graph.reserve(line_count / 2 + 1, 0);
    let mut pending_edges: Vec<(usize, Range<usize>, Edge)> = Vec::new();
    for (idx, (span, line)) in lines_with_spans(text).enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        match decoder.decode_element(line) {
            Ok(Element::Node(n)) => {
                if let Err(e) = graph.add_node(n) {
                    quarantine.divert(policy, "jsonl", lineno, e.to_string(), line)?;
                }
            }
            Ok(Element::Edge(e)) => pending_edges.push((lineno, span, e)),
            Ok(Element::ResolvedEdge(r)) => pending_edges.push((lineno, span, r.edge)),
            Err(e) => {
                quarantine.divert(policy, "jsonl", lineno, e.to_string(), line)?;
            }
        }
    }
    graph.reserve(0, pending_edges.len());
    for (lineno, span, e) in pending_edges {
        if let Err(err) = graph.add_edge(e) {
            quarantine.divert(policy, "jsonl", lineno, err.to_string(), &text[span])?;
        }
    }
    Ok((graph, quarantine))
}

/// Parse JSONL elements straight from a reader, line by line, under an
/// [`ErrorPolicy`] — the streaming ingest path used by the server, where
/// the "file" is a request body. Returns each well-formed element with
/// its 1-based line number, plus the quarantine of malformed lines
/// (including non-UTF-8 lines and a truncated trailing line: both are
/// dirt in the *input*, not I/O failures, so they quarantine rather than
/// abort). Reader errors abort with [`LoadError::Io`].
pub fn read_jsonl_elements<R: BufRead>(
    reader: R,
    policy: ErrorPolicy,
) -> Result<(Vec<(usize, Element)>, Quarantine), LoadError> {
    let mut decoder = JsonlDecoder::new();
    read_jsonl_elements_with(&mut decoder, reader, policy)
}

/// Like [`read_jsonl_elements`], but decoding through a caller-owned
/// [`JsonlDecoder`]. The server keeps one decoder per session so the
/// symbol pool survives across ingest requests and steady-state ingest
/// allocates only values.
pub fn read_jsonl_elements_with<R: BufRead>(
    decoder: &mut JsonlDecoder,
    mut reader: R,
    policy: ErrorPolicy,
) -> Result<(Vec<(usize, Element)>, Quarantine), LoadError> {
    let mut out = Vec::new();
    let mut quarantine = Quarantine::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf).map_err(LoadError::Io)?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s.trim(),
            Err(e) => {
                quarantine
                    .divert(
                        policy,
                        "jsonl",
                        lineno,
                        format!("invalid UTF-8: {e}"),
                        &String::from_utf8_lossy(&buf),
                    )
                    .map_err(LoadError::Policy)?;
                continue;
            }
        };
        if line.is_empty() {
            continue;
        }
        match decoder.decode_element(line) {
            Ok(el) => out.push((lineno, el)),
            Err(e) => {
                quarantine
                    .divert(policy, "jsonl", lineno, e.to_string(), line)
                    .map_err(LoadError::Policy)?;
            }
        }
    }
    Ok((out, quarantine))
}

/// Reader-based counterpart of [`from_jsonl_with_policy`]: stream a
/// JSONL dump into a [`PropertyGraph`] without materializing the text.
/// Same semantics — edges may precede their endpoints (buffered), and
/// duplicates/dangling edges quarantine under the policy.
pub fn from_jsonl_reader_with_policy<R: BufRead>(
    reader: R,
    policy: ErrorPolicy,
) -> Result<(PropertyGraph, Quarantine), LoadError> {
    let (elements, mut quarantine) = read_jsonl_elements(reader, policy)?;
    let mut graph = PropertyGraph::new();
    let mut pending_edges: Vec<(usize, Edge)> = Vec::new();
    let rerender = |el: &Element| -> String {
        serde_json::to_string(el).unwrap_or_else(|_| "<unrenderable element>".to_owned())
    };
    for (lineno, el) in elements {
        match el {
            Element::Node(n) => {
                if let Err(e) = graph.add_node(n.clone()) {
                    quarantine
                        .divert(
                            policy,
                            "jsonl",
                            lineno,
                            e.to_string(),
                            &rerender(&Element::Node(n)),
                        )
                        .map_err(LoadError::Policy)?;
                }
            }
            Element::Edge(e) => pending_edges.push((lineno, e)),
            Element::ResolvedEdge(r) => pending_edges.push((lineno, r.edge)),
        }
    }
    for (lineno, e) in pending_edges {
        if let Err(err) = graph.add_edge(e.clone()) {
            quarantine
                .divert(
                    policy,
                    "jsonl",
                    lineno,
                    err.to_string(),
                    &rerender(&Element::Edge(e)),
                )
                .map_err(LoadError::Policy)?;
        }
    }
    Ok((graph, quarantine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{Date, LabelSet, NodeId, PropertyValue};

    /// I/O that fails once `room` bytes have passed.
    struct Failing(usize);

    impl Failing {
        fn pass(&mut self, want: usize) -> std::io::Result<usize> {
            match want.min(self.0) {
                0 if want > 0 => Err(std::io::Error::other("injected fault")),
                n => {
                    self.0 -= n;
                    Ok(n)
                }
            }
        }
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.pass(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl std::io::Read for Failing {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.pass(buf.len())
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let mut g = PropertyGraph::new();
        g.add_node(
            Node::new(1, LabelSet::single("Person"))
                .with_prop("name", "A")
                .with_prop("score", 1.5f64)
                .with_prop("ok", true)
                .with_prop("bday", Date::new(1999, 12, 19).unwrap()),
        )
        .unwrap();
        g.add_node(Node::new(2, LabelSet::empty())).unwrap();
        g.add_edge(
            Edge::new(7, NodeId(1), NodeId(2), LabelSet::single("KNOWS"))
                .with_prop("since", 2015i64),
        )
        .unwrap();
        let text = to_jsonl(&g);
        let g2 = from_jsonl(&text).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        let n1 = g2.node(NodeId(1)).unwrap();
        assert_eq!(n1.props.get("score"), Some(&PropertyValue::Float(1.5)));
        assert!(matches!(n1.props.get("bday"), Some(PropertyValue::Date(_))));
    }

    #[test]
    fn write_jsonl_streams_and_matches_to_jsonl() {
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::single("A"))).unwrap();
        g.add_node(Node::new(2, LabelSet::single("B"))).unwrap();
        g.add_edge(Edge::new(3, NodeId(1), NodeId(2), LabelSet::single("R")))
            .unwrap();
        let mut buf = Vec::new();
        write_jsonl(&g, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), to_jsonl(&g));
    }

    #[test]
    fn write_jsonl_propagates_io_errors() {
        let mut g = PropertyGraph::new();
        for i in 0..100 {
            g.add_node(Node::new(i, LabelSet::single("N")).with_prop("k", i as i64))
                .unwrap();
        }
        let err = write_jsonl(&g, &mut Failing(64)).unwrap_err();
        assert_eq!(err.to_string(), "injected fault");
    }

    #[test]
    fn edges_before_nodes_are_buffered() {
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::empty())).unwrap();
        g.add_node(Node::new(2, LabelSet::empty())).unwrap();
        g.add_edge(Edge::new(5, NodeId(1), NodeId(2), LabelSet::empty()))
            .unwrap();
        let text = to_jsonl(&g);
        // Move the edge line first.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.rotate_right(1);
        let shuffled = lines.join("\n");
        let g2 = from_jsonl(&shuffled).unwrap();
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn resolved_edges_round_trip_and_load_offline() {
        let rec = EdgeRecord {
            edge: Edge::new(7, NodeId(1), NodeId(2), LabelSet::single("KNOWS")),
            src_labels: LabelSet::single("Person"),
            tgt_labels: LabelSet::single("Org"),
        };
        let line = serde_json::to_string(&Element::ResolvedEdge(rec.clone())).unwrap();
        assert!(line.contains("\"kind\":\"resolved_edge\""), "{line}");
        match serde_json::from_str::<Element>(&line).unwrap() {
            Element::ResolvedEdge(back) => assert_eq!(back, rec),
            other => panic!("expected resolved edge, got {other:?}"),
        }
        // Offline loaders treat it as a plain edge (the graph resolves
        // endpoints itself).
        let text = format!(
            "{}\n{}\n{line}\n",
            serde_json::to_string(&Element::Node(Node::new(1, LabelSet::single("Person"))))
                .unwrap(),
            serde_json::to_string(&Element::Node(Node::new(2, LabelSet::single("Org")))).unwrap(),
        );
        let g = from_jsonl(&text).unwrap();
        assert_eq!(g.edge_count(), 1);
        let (gr, q) = from_jsonl_reader_with_policy(text.as_bytes(), ErrorPolicy::Skip).unwrap();
        assert_eq!(gr.edge_count(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn malformed_lines_error_with_location() {
        let err = from_jsonl("{\"kind\":\"node\"").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn reader_path_matches_text_path() {
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::single("P")).with_prop("x", 1i64))
            .unwrap();
        g.add_node(Node::new(2, LabelSet::single("Q"))).unwrap();
        g.add_edge(Edge::new(9, NodeId(1), NodeId(2), LabelSet::single("R")))
            .unwrap();
        let mut text = to_jsonl(&g);
        text.push_str("not json at all\n");
        let (gt, qt) = from_jsonl_with_policy(&text, ErrorPolicy::Skip).unwrap();
        let (gr, qr) = from_jsonl_reader_with_policy(text.as_bytes(), ErrorPolicy::Skip).unwrap();
        assert_eq!(gt.node_count(), gr.node_count());
        assert_eq!(gt.edge_count(), gr.edge_count());
        assert_eq!(qt.len(), qr.len());
        assert_eq!(qt.entries()[0].line, qr.entries()[0].line);
    }

    #[test]
    fn reader_path_quarantines_truncated_trailing_line() {
        // A body cut mid-record: the last line has no newline and is not
        // valid JSON. That is quarantined dirt, not an I/O error.
        let text = "{\"kind\":\"node\",\"id\":1,\"labels\":[],\"props\":{}}\n{\"kind\":\"nod";
        let (els, q) = read_jsonl_elements(text.as_bytes(), ErrorPolicy::Skip).unwrap();
        assert_eq!(els.len(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.entries()[0].line, 2);
    }

    #[test]
    fn reader_path_quarantines_invalid_utf8() {
        let mut bytes = b"{\"kind\":\"node\",\"id\":1,\"labels\":[],\"props\":{}}\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let (els, q) = read_jsonl_elements(&bytes[..], ErrorPolicy::Skip).unwrap();
        assert_eq!(els.len(), 1);
        assert_eq!(q.len(), 1);
        assert!(q.entries()[0].reason.contains("UTF-8"));
        // Strict aborts on the same input.
        let err = read_jsonl_elements(&bytes[..], ErrorPolicy::Strict).unwrap_err();
        assert!(matches!(err, LoadError::Policy(_)));
    }

    #[test]
    fn reader_path_propagates_io_errors() {
        let text = "{\"kind\":\"node\",\"id\":1,\"labels\":[],\"props\":{}}\n".repeat(50);
        let r = std::io::Read::chain(&text.as_bytes()[..100], Failing(0));
        let err = read_jsonl_elements(std::io::BufReader::new(r), ErrorPolicy::Skip).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)), "{err}");
    }

    #[test]
    fn crlf_lines_and_missing_trailing_newline_split_like_str_lines() {
        let node = |id: u64| {
            serde_json::to_string(&Element::Node(Node::new(id, LabelSet::single("P")))).unwrap()
        };
        // CRLF separators plus a final line with no newline at all.
        let text = format!("{}\r\n{}\r\n{}", node(1), node(2), node(3));
        let (g, q) = from_jsonl_with_policy(&text, ErrorPolicy::Skip).unwrap();
        assert_eq!(g.node_count(), 3);
        assert!(q.is_empty(), "{q:?}");
    }

    #[test]
    fn session_decoder_survives_across_reader_batches() {
        let mut decoder = JsonlDecoder::new();
        let a = "{\"kind\":\"node\",\"id\":1,\"labels\":[\"P\"],\"props\":{\"k\":{\"Int\":1}}}\n";
        let b = "{\"kind\":\"node\",\"id\":2,\"labels\":[\"P\"],\"props\":{\"k\":{\"Int\":2}}}\n";
        let (e1, _) =
            read_jsonl_elements_with(&mut decoder, a.as_bytes(), ErrorPolicy::Skip).unwrap();
        let (e2, _) =
            read_jsonl_elements_with(&mut decoder, b.as_bytes(), ErrorPolicy::Skip).unwrap();
        let (Element::Node(n1), Element::Node(n2)) = (&e1[0].1, &e2[0].1) else {
            panic!("expected nodes");
        };
        let l1 = n1.labels.iter().next().unwrap();
        let l2 = n2.labels.iter().next().unwrap();
        assert!(
            std::sync::Arc::ptr_eq(l1, l2),
            "interner must persist across batches"
        );
        assert_eq!(decoder.interned_symbols(), 2);
    }

    #[test]
    fn lenient_mode_quarantines_bad_lines_and_dangling_edges() {
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::single("P"))).unwrap();
        g.add_node(Node::new(2, LabelSet::single("P"))).unwrap();
        g.add_edge(Edge::new(10, NodeId(1), NodeId(2), LabelSet::single("K")))
            .unwrap();
        let mut text = to_jsonl(&g);
        // Line 4: garbage. Line 5: edge to a node that never loads.
        text.push_str("this is not json\n");
        let dangling = Edge::new(11, NodeId(1), NodeId(999), LabelSet::single("K"));
        text.push_str(&serde_json::to_string(&Element::Edge(dangling)).unwrap());
        text.push('\n');
        let (g2, q) = from_jsonl_with_policy(&text, ErrorPolicy::Skip).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.entries()[0].line, 4);
        assert_eq!(q.entries()[1].line, 5);
        assert!(q.entries()[1].reason.contains("unknown node"), "{q:?}");

        // Strict policy on the same dirt fails at line 4.
        let err = from_jsonl_with_policy(&text, ErrorPolicy::Strict).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }
}
