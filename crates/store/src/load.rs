//! The loading step (§4.1): materialize nodes and edges from a store into
//! flat records, resolving edge endpoint labels up front.
//!
//! This mirrors the paper's "single query" that retrieves nodes, edges,
//! and their properties in a uniform structure (a Spark DataFrame there,
//! plain `Vec`s of records here).

use pg_model::{Edge, LabelSet, Node, PropertyGraph};

/// A loaded node. Currently identical to [`Node`]; the alias exists so the
/// pipeline's input contract is explicit and can evolve independently of
/// the storage representation.
pub type NodeRecord = Node;

/// A loaded edge together with the labels of its endpoints, resolved at
/// load time. If an endpoint is not present in the loaded graph (possible
/// for cross-batch edges in the incremental setting), its label set is
/// empty — exactly the "missing label" case the pipeline already handles.
///
/// Serializable because it is also the wire form of a pre-resolved edge
/// (`kind: "resolved_edge"` JSONL lines, see [`crate::jsonl::Element`]):
/// a router that has seen every node can resolve endpoints centrally
/// and ship records a plain shard can apply without holding the global
/// node-label index.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EdgeRecord {
    /// The edge itself (labels + properties + endpoint ids).
    pub edge: Edge,
    /// Labels of the source node at load time.
    pub src_labels: LabelSet,
    /// Labels of the target node at load time.
    pub tgt_labels: LabelSet,
}

/// Load a full graph into flat records — the substitute for the paper's
/// Neo4j extraction query. The graph stays usable and every record is a
/// clone; a caller that is done with the graph uses [`load_owned`].
pub fn load(graph: &PropertyGraph) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    records(
        graph.nodes().cloned(),
        graph.edges().cloned(),
        endpoint_labels(graph),
    )
}

/// [`load`] for a graph nobody reads again: nodes and edges *move* into
/// their records, so a decoded element exists once (DESIGN.md §3m).
/// Record for record the result of `load(&graph)`.
pub fn load_owned(graph: PropertyGraph) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    // Endpoints resolve against the intact graph, before the move.
    let ends: Vec<_> = endpoint_labels(&graph).collect();
    let (nodes, edges) = graph.into_parts();
    records(nodes.into_iter(), edges.into_iter(), ends.into_iter())
}

/// The `(source, target)` label sets of every edge, in edge order.
fn endpoint_labels(graph: &PropertyGraph) -> impl Iterator<Item = (LabelSet, LabelSet)> + '_ {
    graph.edges().map(|e| graph.endpoint_labels(e))
}

/// The one body of both loading forms: pair each edge with its resolved
/// endpoint labels.
fn records(
    nodes: impl Iterator<Item = Node>,
    edges: impl Iterator<Item = Edge>,
    ends: impl Iterator<Item = (LabelSet, LabelSet)>,
) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    let edges = edges
        .zip(ends)
        .map(|(edge, (src_labels, tgt_labels))| EdgeRecord {
            edge,
            src_labels,
            tgt_labels,
        })
        .collect();
    (nodes.collect(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{LabelSet, Node, NodeId};

    #[test]
    fn load_resolves_endpoint_labels() {
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::single("Person")))
            .unwrap();
        g.add_node(Node::new(2, LabelSet::single("Org"))).unwrap();
        g.add_edge(
            Edge::new(10, NodeId(1), NodeId(2), LabelSet::single("WORKS_AT"))
                .with_prop("from", 2019i64),
        )
        .unwrap();
        let (nodes, edges) = load(&g);
        assert_eq!(nodes.len(), 2);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].src_labels, LabelSet::single("Person"));
        assert_eq!(edges[0].tgt_labels, LabelSet::single("Org"));
        assert!(edges[0].edge.props.contains_key("from"));
    }
}
