//! The test oracle for `pg-store`'s JSONL loader: the original
//! `serde_json::from_str::<Element>` document decoder, kept verbatim.
//! The shipped zero-copy `from_jsonl_with_policy` must load every
//! document to the same graph with the same quarantine (line numbers
//! and excerpts) as this code (`decode_differential.rs`);
//! `crates/bench` includes this file for the parse baseline in
//! `bench_discovery`, `alloc_audit` and `benches/jsonl_decode.rs`.
#![allow(dead_code)]

use pg_model::{Edge, ModelError, PropertyGraph};
use pg_store::jsonl::Element;
use pg_store::{ErrorPolicy, Quarantine};

/// Reference-decoder counterpart of `pg_store::jsonl::from_jsonl_with_policy`
/// on the `serde_json::from_str` path.
pub fn from_jsonl_with_policy_reference(
    text: &str,
    policy: ErrorPolicy,
) -> Result<(PropertyGraph, Quarantine), ModelError> {
    let mut graph = PropertyGraph::new();
    let mut quarantine = Quarantine::new();
    let mut pending_edges: Vec<(usize, String, Edge)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Element>(line) {
            Ok(Element::Node(n)) => {
                if let Err(e) = graph.add_node(n) {
                    quarantine.divert(policy, "jsonl", lineno, e.to_string(), line)?;
                }
            }
            Ok(Element::Edge(e)) => pending_edges.push((lineno, line.to_owned(), e)),
            Ok(Element::ResolvedEdge(r)) => pending_edges.push((lineno, line.to_owned(), r.edge)),
            Err(e) => {
                quarantine.divert(policy, "jsonl", lineno, e.to_string(), line)?;
            }
        }
    }
    for (lineno, raw, e) in pending_edges {
        if let Err(err) = graph.add_edge(e) {
            quarantine.divert(policy, "jsonl", lineno, err.to_string(), &raw)?;
        }
    }
    Ok((graph, quarantine))
}
