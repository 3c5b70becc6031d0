//! Property-based tests for storage: serialization round-trips and batch
//! splitting over arbitrary graphs.

use pg_model::{Edge, LabelSet, Node, NodeId, PropertyGraph, PropertyValue};
use pg_store::csv::{edges_to_csv, graph_from_csv, nodes_to_csv};
use pg_store::jsonl::{from_jsonl, to_jsonl};
use pg_store::{load, load_owned, split_batches, split_batches_owned};
use proptest::prelude::*;

/// Arbitrary property values whose rendering round-trips (strings are
/// constrained to not look like other types).
fn arb_value() -> impl Strategy<Value = PropertyValue> {
    prop_oneof![
        any::<i64>().prop_map(PropertyValue::Int),
        (-1e9f64..1e9).prop_map(PropertyValue::Float),
        any::<bool>().prop_map(PropertyValue::Bool),
        "[a-zA-Z][a-zA-Z ,\"]{0,12}".prop_map(PropertyValue::Str),
    ]
}

fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let node = (
        prop::collection::vec("[A-Z][a-z]{0,5}", 0..3),
        prop::collection::vec(("[a-z]{1,5}", arb_value()), 0..4),
    );
    (
        prop::collection::vec(node, 1..25),
        prop::collection::vec((0usize..25, 0usize..25, "[A-Z_]{1,8}"), 0..30),
    )
        .prop_map(|(nodes, edges)| {
            let mut g = PropertyGraph::new();
            let n = nodes.len();
            for (i, (labels, props)) in nodes.into_iter().enumerate() {
                let mut node = Node::new(i as u64, LabelSet::from_iter(labels));
                for (k, v) in props {
                    node.props.insert(pg_model::sym(&k), v);
                }
                let _ = g.add_node(node);
            }
            for (j, (s, t, label)) in edges.into_iter().enumerate() {
                let _ = g.add_edge(Edge::new(
                    1000 + j as u64,
                    NodeId((s % n) as u64),
                    NodeId((t % n) as u64),
                    LabelSet::single(&label),
                ));
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jsonl_round_trip_is_identity(g in arb_graph()) {
        let back = from_jsonl(&to_jsonl(&g)).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for node in g.nodes() {
            prop_assert_eq!(back.node(node.id).unwrap(), node);
        }
        for edge in g.edges() {
            prop_assert_eq!(back.edge(edge.id).unwrap(), edge);
        }
    }

    #[test]
    fn csv_round_trip_preserves_structure(g in arb_graph()) {
        let back = graph_from_csv(&nodes_to_csv(&g), &edges_to_csv(&g)).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for node in g.nodes() {
            let other = back.node(node.id).unwrap();
            prop_assert_eq!(&node.labels, &other.labels);
            prop_assert_eq!(node.props.len(), other.props.len());
            // Values round-trip through render/infer.
            for (k, v) in &node.props {
                prop_assert_eq!(
                    other.props.get(k).map(|x| x.render()),
                    Some(v.render())
                );
            }
        }
    }

    #[test]
    fn batch_split_partitions_exactly(g in arb_graph(), k in 1usize..8, seed in 0u64..100) {
        let batches = split_batches(&g, k, seed);
        prop_assert_eq!(batches.len(), k);
        let mut node_ids: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.nodes.iter().map(|n| n.id.0))
            .collect();
        node_ids.sort_unstable();
        let mut expected: Vec<u64> = g.nodes().map(|n| n.id.0).collect();
        expected.sort_unstable();
        prop_assert_eq!(node_ids, expected);
        let edge_total: usize = batches.iter().map(|b| b.edges.len()).sum();
        prop_assert_eq!(edge_total, g.edge_count());
        // Sizes are balanced within one element.
        let sizes: Vec<usize> = batches.iter().map(|b| b.nodes.len()).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    #[test]
    fn edge_records_resolve_labels_from_full_graph(g in arb_graph(), seed in 0u64..100) {
        let batches = split_batches(&g, 3, seed);
        for b in &batches {
            for rec in &b.edges {
                let expected_src = g.node(rec.edge.src).unwrap().labels.clone();
                prop_assert_eq!(&rec.src_labels, &expected_src);
            }
        }
    }

    // The consuming forms move the records the borrowed forms clone:
    // same records, same order, same batches — endpoints resolved
    // before the move, including those that land in another batch.
    #[test]
    fn consuming_load_and_split_equal_the_borrowed_forms(g in arb_graph(), seed in 0u64..100) {
        prop_assert_eq!(load_owned(g.clone()), load(&g));
        for k in [1usize, 3, 16] {
            let lent = split_batches(&g, k, seed);
            let given = split_batches_owned(g.clone(), k, seed);
            prop_assert_eq!(lent.len(), given.len());
            for (l, o) in lent.iter().zip(&given) {
                prop_assert_eq!(&l.nodes, &o.nodes);
                prop_assert_eq!(&l.edges, &o.edges);
            }
            for rec in given.iter().flat_map(|b| &b.edges) {
                prop_assert_eq!(&rec.src_labels, &g.node(rec.edge.src).unwrap().labels);
                prop_assert_eq!(&rec.tgt_labels, &g.node(rec.edge.tgt).unwrap().labels);
            }
        }
    }
}
