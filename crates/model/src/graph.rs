//! The property graph itself (Definition 3.1).
//!
//! `G = (V, E, ρ, λ, π)`: disjoint node/edge sets, a total endpoint function
//! for edges, a partial label assignment, and a partial key–value property
//! assignment. Both nodes and edges may carry zero or more labels and zero
//! or more properties.

use crate::error::ModelError;
use crate::intern::FnvBuildHasher;
use crate::label::{LabelSet, Symbol};
use crate::props::PropMap;
use crate::value::PropertyValue;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

/// Identifier of a node. Ids are stable across batches, which the
/// incremental pipeline relies on.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u64);

/// Identifier of an edge.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct EdgeId(pub u64);

/// A node: entity with labels and key–value properties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Stable identifier.
    pub id: NodeId,
    /// Possibly empty label set (λ is partial).
    pub labels: LabelSet,
    /// Key–value properties (π is partial; absent keys are simply missing).
    pub props: PropMap,
}

impl Node {
    /// Create a node with no properties.
    pub fn new(id: u64, labels: LabelSet) -> Self {
        Node {
            id: NodeId(id),
            labels,
            props: PropMap::new(),
        }
    }

    /// Builder-style property attachment.
    pub fn with_prop(mut self, key: &str, value: impl Into<PropertyValue>) -> Self {
        self.props.insert(crate::label::sym(key), value.into());
        self
    }

    /// The set of property keys present on this node.
    pub fn key_set(&self) -> BTreeSet<Symbol> {
        self.props.keys().cloned().collect()
    }
}

/// An edge: a directed relationship between two nodes, with labels and
/// properties of its own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Stable identifier.
    pub id: EdgeId,
    /// Source endpoint.
    pub src: NodeId,
    /// Target endpoint.
    pub tgt: NodeId,
    /// Possibly empty label set.
    pub labels: LabelSet,
    /// Key–value properties.
    pub props: PropMap,
}

impl Edge {
    /// Create an edge with no properties.
    pub fn new(id: u64, src: NodeId, tgt: NodeId, labels: LabelSet) -> Self {
        Edge {
            id: EdgeId(id),
            src,
            tgt,
            labels,
            props: PropMap::new(),
        }
    }

    /// Builder-style property attachment.
    pub fn with_prop(mut self, key: &str, value: impl Into<PropertyValue>) -> Self {
        self.props.insert(crate::label::sym(key), value.into());
        self
    }

    /// The set of property keys present on this edge.
    pub fn key_set(&self) -> BTreeSet<Symbol> {
        self.props.keys().cloned().collect()
    }
}

/// Id → dense position. Lookup-only (no order is ever observed), so the
/// cheap FNV hash the other flat maps use is safe here.
type PosMap = HashMap<u64, u32, FnvBuildHasher>;

/// Per-node incident edge positions, both directions.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    out: HashMap<u64, Vec<u32>, FnvBuildHasher>,
    inc: HashMap<u64, Vec<u32>, FnvBuildHasher>,
}

impl Adjacency {
    fn of(edges: &[Edge]) -> Adjacency {
        let mut adj = Adjacency::default();
        for (pos, edge) in edges.iter().enumerate() {
            adj.attach(edge, pos as u32);
        }
        adj
    }

    fn attach(&mut self, edge: &Edge, pos: u32) {
        self.out.entry(edge.src.0).or_default().push(pos);
        self.inc.entry(edge.tgt.0).or_default().push(pos);
    }
}

/// An in-memory directed property multigraph.
///
/// Nodes and edges are stored densely; id → position maps support O(1)
/// lookup. Adjacency lists (degree queries, context refinement) exist
/// **on demand**: the first adjacency query builds them from the edge
/// list and later mutations keep them current, so a graph that is only
/// loaded and handed to discovery never pays for them.
#[derive(Debug, Clone, Default)]
pub struct PropertyGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    node_pos: PosMap,
    edge_pos: PosMap,
    adjacency: OnceLock<Adjacency>,
}

impl PropertyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut graph = PropertyGraph::new();
        graph.reserve(nodes, edges);
        graph
    }

    /// Reserve capacity for at least `nodes` more nodes and `edges` more
    /// edges. Bulk loaders call this once per batch so the dense stores
    /// and id→position maps never rehash-grow element by element.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.node_pos.reserve(nodes);
        self.edges.reserve(edges);
        self.edge_pos.reserve(edges);
    }

    /// Insert a node. Fails on duplicate id.
    pub fn add_node(&mut self, node: Node) -> Result<NodeId, ModelError> {
        let id = node.id;
        match self.node_pos.entry(id.0) {
            Entry::Occupied(_) => return Err(ModelError::DuplicateNode { node: id.0 }),
            Entry::Vacant(slot) => slot.insert(self.nodes.len() as u32),
        };
        self.nodes.push(node);
        Ok(id)
    }

    /// Insert an edge. Fails on duplicate id or a missing endpoint.
    pub fn add_edge(&mut self, edge: Edge) -> Result<EdgeId, ModelError> {
        let id = edge.id;
        let pos = self.edges.len() as u32;
        match self.edge_pos.entry(id.0) {
            Entry::Occupied(_) => return Err(ModelError::DuplicateEdge { edge: id.0 }),
            Entry::Vacant(slot) => {
                for ep in [edge.src, edge.tgt] {
                    if !self.node_pos.contains_key(&ep.0) {
                        return Err(ModelError::DanglingEndpoint { node: ep.0 });
                    }
                }
                slot.insert(pos);
            }
        }
        if let Some(adj) = self.adjacency.get_mut() {
            adj.attach(&edge, pos);
        }
        self.edges.push(edge);
        Ok(id)
    }

    /// The adjacency lists, built from the edge list on first use.
    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| Adjacency::of(&self.edges))
    }

    /// Take the graph apart into its nodes and edges, each in insertion
    /// order — the consuming loaders move records out of a decoded graph
    /// instead of cloning them.
    pub fn into_parts(self) -> (Vec<Node>, Vec<Edge>) {
        (self.nodes, self.edges)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no nodes and no edges.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.node_pos.get(&id.0).map(|&p| &self.nodes[p as usize])
    }

    /// Look up an edge by id.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edge_pos.get(&id.0).map(|&p| &self.edges[p as usize])
    }

    /// Iterate all nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterate all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Mutable iteration over nodes (noise injection).
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.iter_mut()
    }

    /// Mutable iteration over edges (noise injection).
    pub fn edges_mut(&mut self) -> impl Iterator<Item = &mut Edge> {
        self.edges.iter_mut()
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.adjacency()
            .out
            .get(&id.0)
            .into_iter()
            .flatten()
            .map(move |&p| &self.edges[p as usize])
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.adjacency()
            .inc
            .get(&id.0)
            .into_iter()
            .flatten()
            .map(move |&p| &self.edges[p as usize])
    }

    /// All distinct property keys appearing on nodes, in sorted order.
    /// This is the global key set `K` that fixes the width of the binary
    /// property vector (§4.1).
    pub fn node_property_keys(&self) -> Vec<Symbol> {
        let set: BTreeSet<Symbol> = self
            .nodes
            .iter()
            .flat_map(|n| n.props.keys().cloned())
            .collect();
        set.into_iter().collect()
    }

    /// All distinct property keys appearing on edges, sorted (the set `Q`).
    pub fn edge_property_keys(&self) -> Vec<Symbol> {
        let set: BTreeSet<Symbol> = self
            .edges
            .iter()
            .flat_map(|e| e.props.keys().cloned())
            .collect();
        set.into_iter().collect()
    }

    /// All distinct node labels (individual labels, not label sets).
    pub fn node_labels(&self) -> BTreeSet<Symbol> {
        self.nodes
            .iter()
            .flat_map(|n| n.labels.iter().cloned())
            .collect()
    }

    /// All distinct edge labels.
    pub fn edge_labels(&self) -> BTreeSet<Symbol> {
        self.edges
            .iter()
            .flat_map(|e| e.labels.iter().cloned())
            .collect()
    }

    /// Absorb another graph (disjoint ids assumed; duplicates error).
    /// Used to assemble a full graph from batches.
    pub fn absorb(&mut self, other: PropertyGraph) -> Result<(), ModelError> {
        for n in other.nodes {
            self.add_node(n)?;
        }
        for e in other.edges {
            self.add_edge(e)?;
        }
        Ok(())
    }

    /// The labels of an edge's endpoints, if both are present. Edges whose
    /// endpoints live in a different batch yield `None` for the missing
    /// side, modeled as an empty label set.
    pub fn endpoint_labels(&self, edge: &Edge) -> (LabelSet, LabelSet) {
        let src = self
            .node(edge.src)
            .map(|n| n.labels.clone())
            .unwrap_or_default();
        let tgt = self
            .node(edge.tgt)
            .map(|n| n.labels.clone())
            .unwrap_or_default();
        (src, tgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelSet;

    fn person(id: u64) -> Node {
        Node::new(id, LabelSet::single("Person"))
            .with_prop("name", "x")
            .with_prop("age", 30i64)
    }

    #[test]
    fn insert_and_lookup() {
        let mut g = PropertyGraph::new();
        g.add_node(person(1)).unwrap();
        g.add_node(person(2)).unwrap();
        let e = Edge::new(10, NodeId(1), NodeId(2), LabelSet::single("KNOWS"))
            .with_prop("since", 2020i64);
        g.add_edge(e).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.node(NodeId(1)).is_some());
        assert!(g.node(NodeId(3)).is_none());
        assert_eq!(g.edge(EdgeId(10)).unwrap().src, NodeId(1));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut g = PropertyGraph::new();
        g.add_node(person(1)).unwrap();
        assert_eq!(
            g.add_node(person(1)),
            Err(ModelError::DuplicateNode { node: 1 })
        );
        g.add_node(person(2)).unwrap();
        g.add_edge(Edge::new(5, NodeId(1), NodeId(2), LabelSet::empty()))
            .unwrap();
        assert_eq!(
            g.add_edge(Edge::new(5, NodeId(2), NodeId(1), LabelSet::empty())),
            Err(ModelError::DuplicateEdge { edge: 5 })
        );
    }

    #[test]
    fn dangling_endpoints_rejected() {
        let mut g = PropertyGraph::new();
        g.add_node(person(1)).unwrap();
        let err = g
            .add_edge(Edge::new(5, NodeId(1), NodeId(99), LabelSet::empty()))
            .unwrap_err();
        assert_eq!(err, ModelError::DanglingEndpoint { node: 99 });
        // Failed insert must not corrupt state.
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_edges(NodeId(1)).count(), 0);
    }

    #[test]
    fn adjacency_and_degrees() {
        let mut g = PropertyGraph::new();
        for i in 1..=3 {
            g.add_node(person(i)).unwrap();
        }
        g.add_edge(Edge::new(
            10,
            NodeId(1),
            NodeId(2),
            LabelSet::single("KNOWS"),
        ))
        .unwrap();
        g.add_edge(Edge::new(
            11,
            NodeId(1),
            NodeId(3),
            LabelSet::single("KNOWS"),
        ))
        .unwrap();
        g.add_edge(Edge::new(
            12,
            NodeId(2),
            NodeId(1),
            LabelSet::single("KNOWS"),
        ))
        .unwrap();
        assert_eq!(g.out_edges(NodeId(1)).count(), 2);
        assert_eq!(g.in_edges(NodeId(1)).count(), 1);
        assert_eq!(g.out_edges(NodeId(1)).count(), 2);
        assert_eq!(g.in_edges(NodeId(3)).count(), 1);
        assert_eq!(g.out_edges(NodeId(3)).count(), 0);
    }

    #[test]
    fn key_universe_is_sorted_and_distinct() {
        let mut g = PropertyGraph::new();
        g.add_node(
            Node::new(1, LabelSet::empty())
                .with_prop("b", 1i64)
                .with_prop("a", 2i64),
        )
        .unwrap();
        g.add_node(
            Node::new(2, LabelSet::empty())
                .with_prop("b", 3i64)
                .with_prop("c", 4i64),
        )
        .unwrap();
        let keys = g.node_property_keys();
        let names: Vec<&str> = keys.iter().map(|s| s.as_ref()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn absorb_merges_batches() {
        let mut a = PropertyGraph::new();
        a.add_node(person(1)).unwrap();
        let mut b = PropertyGraph::new();
        b.add_node(person(2)).unwrap();
        a.absorb(b).unwrap();
        assert_eq!(a.node_count(), 2);
    }

    #[test]
    fn endpoint_labels_default_to_empty_for_missing_nodes() {
        let mut g = PropertyGraph::new();
        g.add_node(person(1)).unwrap();
        g.add_node(person(2)).unwrap();
        let e = Edge::new(7, NodeId(1), NodeId(2), LabelSet::single("KNOWS"));
        g.add_edge(e.clone()).unwrap();
        let (s, t) = g.endpoint_labels(&e);
        assert_eq!(s, LabelSet::single("Person"));
        assert_eq!(t, LabelSet::single("Person"));
        // An edge object pointing at nodes this graph does not contain.
        let phantom = Edge::new(8, NodeId(50), NodeId(51), LabelSet::empty());
        let (s, t) = g.endpoint_labels(&phantom);
        assert!(s.is_empty() && t.is_empty());
    }
}
