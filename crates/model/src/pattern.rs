//! Structural patterns (Definitions 3.5 and 3.6).
//!
//! A *node pattern* is a pair `(L, K)` of a label set and a property-key
//! set; an *edge pattern* additionally records the source and target label
//! sets `R = (L_s, L_t)`. Multiple patterns may correspond to one type —
//! the paper uses the number of distinct patterns per dataset (Table 2) as
//! a measure of structural heterogeneity, and cluster representatives are
//! patterns over the union of their members.

use crate::graph::PropertyGraph;
use crate::label::{LabelSet, Symbol};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A node pattern `(L, K)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct NodePattern {
    /// Label set `L ⊆ 𝓛`.
    pub labels: LabelSet,
    /// Property-key set `K ⊆ 𝓚`.
    pub keys: BTreeSet<Symbol>,
}

impl NodePattern {
    /// Construct a pattern from labels and keys.
    pub fn new(labels: LabelSet, keys: BTreeSet<Symbol>) -> Self {
        NodePattern { labels, keys }
    }
}

impl fmt::Display for NodePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {{", self.labels)?;
        for (i, k) in self.keys.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "}})")
    }
}

/// An edge pattern `(L, K, R)` with `R = (L_s, L_t)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct EdgePattern {
    /// Label set of the edge.
    pub labels: LabelSet,
    /// Property-key set of the edge.
    pub keys: BTreeSet<Symbol>,
    /// Source node label set.
    pub src_labels: LabelSet,
    /// Target node label set.
    pub tgt_labels: LabelSet,
}

impl EdgePattern {
    /// Construct an edge pattern.
    pub fn new(
        labels: LabelSet,
        keys: BTreeSet<Symbol>,
        src_labels: LabelSet,
        tgt_labels: LabelSet,
    ) -> Self {
        EdgePattern {
            labels,
            keys,
            src_labels,
            tgt_labels,
        }
    }
}

impl fmt::Display for EdgePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, |K|={}, ({} -> {}))",
            self.labels,
            self.keys.len(),
            self.src_labels,
            self.tgt_labels
        )
    }
}

/// Jaccard similarity of two key sets — the similarity Algorithm 2's
/// test oracle merges by. Two empty sets are defined to be identical
/// (similarity 1) — two property-less clusters are structurally
/// indistinguishable.
pub fn jaccard(a: &BTreeSet<Symbol>, b: &BTreeSet<Symbol>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Collect the distinct node patterns of a graph with their multiplicity.
pub fn node_patterns(graph: &PropertyGraph) -> HashMap<NodePattern, usize> {
    let mut out: HashMap<NodePattern, usize> = HashMap::new();
    for n in graph.nodes() {
        let p = NodePattern::new(n.labels.clone(), n.key_set());
        *out.entry(p).or_insert(0) += 1;
    }
    out
}

/// Collect the distinct edge patterns of a graph with their multiplicity.
pub fn edge_patterns(graph: &PropertyGraph) -> HashMap<EdgePattern, usize> {
    let mut out: HashMap<EdgePattern, usize> = HashMap::new();
    for e in graph.edges() {
        let (src, tgt) = graph.endpoint_labels(e);
        let p = EdgePattern::new(e.labels.clone(), e.key_set(), src, tgt);
        *out.entry(p).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, Node, NodeId};

    fn keys(ks: &[&str]) -> BTreeSet<Symbol> {
        ks.iter().map(|k| crate::label::sym(k)).collect()
    }

    #[test]
    fn jaccard_basics() {
        let a = keys(&["name", "age"]);
        let b = keys(&["name", "age"]);
        assert_eq!(jaccard(&a, &b), 1.0);
        let c = keys(&["name"]);
        assert_eq!(jaccard(&a, &c), 0.5);
        let d = keys(&["url"]);
        assert_eq!(jaccard(&a, &d), 0.0);
        assert_eq!(jaccard(&keys(&[]), &keys(&[])), 1.0);
        assert_eq!(jaccard(&a, &keys(&[])), 0.0);
    }

    #[test]
    fn pattern_extraction_counts_multiplicity() {
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::single("Person")).with_prop("name", "a"))
            .unwrap();
        g.add_node(Node::new(2, LabelSet::single("Person")).with_prop("name", "b"))
            .unwrap();
        g.add_node(Node::new(3, LabelSet::single("Person")).with_prop("url", "u"))
            .unwrap();
        let pats = node_patterns(&g);
        assert_eq!(pats.len(), 2);
        let p = NodePattern::new(LabelSet::single("Person"), keys(&["name"]));
        assert_eq!(pats[&p], 2);

        g.add_edge(Edge::new(
            10,
            NodeId(1),
            NodeId(2),
            LabelSet::single("KNOWS"),
        ))
        .unwrap();
        g.add_edge(Edge::new(
            11,
            NodeId(2),
            NodeId(3),
            LabelSet::single("KNOWS"),
        ))
        .unwrap();
        let eps = edge_patterns(&g);
        // Same edge label but structurally identical endpoints/keys → one
        // pattern with multiplicity 2.
        assert_eq!(eps.len(), 1);
        assert_eq!(*eps.values().next().unwrap(), 2);
    }

    #[test]
    fn running_example_patterns() {
        // Figure 1 of the paper: Person/unlabeled/Org/Post×2/Place.
        let mut g = PropertyGraph::new();
        g.add_node(
            Node::new(1, LabelSet::single("Person"))
                .with_prop("name", "Bob")
                .with_prop("gender", "m")
                .with_prop("bday", "19/12/1999"),
        )
        .unwrap();
        g.add_node(
            Node::new(2, LabelSet::empty())
                .with_prop("name", "Alice")
                .with_prop("gender", "f")
                .with_prop("bday", "01/01/2000"),
        )
        .unwrap();
        g.add_node(
            Node::new(3, LabelSet::single("Org"))
                .with_prop("name", "FORTH")
                .with_prop("url", "ics.forth.gr"),
        )
        .unwrap();
        g.add_node(Node::new(4, LabelSet::single("Post")).with_prop("imgFile", "x.png"))
            .unwrap();
        g.add_node(Node::new(5, LabelSet::single("Post")).with_prop("content", "hi"))
            .unwrap();
        g.add_node(Node::new(6, LabelSet::single("Place")).with_prop("name", "Heraklion"))
            .unwrap();
        let pats = node_patterns(&g);
        assert_eq!(pats.len(), 6, "six distinct node patterns as in Example 2");
    }
}
