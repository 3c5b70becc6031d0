//! Random batch splitting for the incremental pipeline (§4.6, Figure 7).
//!
//! The paper evaluates incrementality by "randomly separating the graph
//! into 10 batches". A [`GraphBatch`] carries loaded node and edge
//! records; edge records resolve their endpoint labels against the *full*
//! graph at split time, matching the load query's behaviour.

use crate::load::{load, load_owned, EdgeRecord, NodeRecord};
use pg_model::PropertyGraph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One batch of the incremental stream `G = {Gs_1, …, Gs_n}`.
#[derive(Debug, Clone, Default)]
pub struct GraphBatch {
    /// Nodes arriving in this batch.
    pub nodes: Vec<NodeRecord>,
    /// Edges arriving in this batch (with resolved endpoint labels).
    pub edges: Vec<EdgeRecord>,
}

impl GraphBatch {
    /// Number of elements (nodes + edges) in the batch.
    pub fn len(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }
}

/// Split `graph` into `k` batches by uniformly shuffling nodes and edges
/// with a seeded RNG (deterministic given `seed`). Every node and edge
/// appears in exactly one batch; batch sizes differ by at most one.
///
/// # Panics
/// Panics if `k == 0`.
pub fn split_batches(graph: &PropertyGraph, k: usize, seed: u64) -> Vec<GraphBatch> {
    deal(load(graph), k, seed)
}

/// [`split_batches`] for a graph nobody reads again: the records move
/// into their batches instead of being cloned. Same shuffle, same
/// round-robin, so batch for batch the result of `split_batches(&graph,
/// k, seed)`.
///
/// # Panics
/// Panics if `k == 0`.
pub fn split_batches_owned(graph: PropertyGraph, k: usize, seed: u64) -> Vec<GraphBatch> {
    deal(load_owned(graph), k, seed)
}

/// Shuffle the loaded records and deal them round-robin into `k` batches.
fn deal(
    (mut nodes, mut edges): (Vec<NodeRecord>, Vec<EdgeRecord>),
    k: usize,
    seed: u64,
) -> Vec<GraphBatch> {
    assert!(k > 0, "batch count must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    nodes.shuffle(&mut rng);
    edges.shuffle(&mut rng);

    let mut batches: Vec<GraphBatch> = (0..k).map(|_| GraphBatch::default()).collect();
    for (i, n) in nodes.into_iter().enumerate() {
        batches[i % k].nodes.push(n);
    }
    for (i, e) in edges.into_iter().enumerate() {
        batches[i % k].edges.push(e);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{Edge, LabelSet, Node, NodeId};

    fn sample_graph(n: u64) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            g.add_node(Node::new(i, LabelSet::single("N")).with_prop("k", i as i64))
                .unwrap();
        }
        for i in 0..n.saturating_sub(1) {
            g.add_edge(Edge::new(
                1000 + i,
                NodeId(i),
                NodeId(i + 1),
                LabelSet::single("E"),
            ))
            .unwrap();
        }
        g
    }

    #[test]
    fn batches_partition_the_graph() {
        let g = sample_graph(37);
        let batches = split_batches(&g, 10, 7);
        assert_eq!(batches.len(), 10);
        let total_nodes: usize = batches.iter().map(|b| b.nodes.len()).sum();
        let total_edges: usize = batches.iter().map(|b| b.edges.len()).sum();
        assert_eq!(total_nodes, 37);
        assert_eq!(total_edges, 36);
        // No duplicates.
        let mut ids: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.nodes.iter().map(|n| n.id.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 37);
        // Balanced within one element.
        let max = batches.iter().map(|b| b.nodes.len()).max().unwrap();
        let min = batches.iter().map(|b| b.nodes.len()).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn splitting_is_deterministic_per_seed() {
        let g = sample_graph(20);
        let a = split_batches(&g, 4, 42);
        let b = split_batches(&g, 4, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.edges, y.edges);
        }
        let c = split_batches(&g, 4, 43);
        let same = a.iter().zip(&c).all(|(x, y)| {
            x.nodes.iter().map(|n| n.id).collect::<Vec<_>>()
                == y.nodes.iter().map(|n| n.id).collect::<Vec<_>>()
        });
        assert!(!same, "different seeds should shuffle differently");
    }

    #[test]
    #[should_panic(expected = "batch count")]
    fn zero_batches_panics() {
        let g = sample_graph(3);
        let _ = split_batches(&g, 0, 1);
    }

    #[test]
    fn edge_records_carry_endpoint_labels() {
        let g = sample_graph(5);
        let batches = split_batches(&g, 2, 1);
        for b in &batches {
            for er in &b.edges {
                assert_eq!(er.src_labels, LabelSet::single("N"));
            }
        }
    }
}
