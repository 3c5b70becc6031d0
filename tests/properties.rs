//! Property-based tests over the core invariants (§4.7's guarantees),
//! driven by randomly generated property graphs.

use pg_hive::{HiveConfig, HiveSession, PgHive};
use pg_model::{Edge, LabelSet, Node, NodeId, Presence, PropertyGraph, PropertyValue};
use pg_store::split_batches;
use proptest::prelude::*;

/// Strategy: a random property graph with up to 5 node archetypes, up to
/// 60 nodes, random property subsets, random labels (possibly absent),
/// and random edges.
fn arb_graph() -> impl Strategy<Value = PropertyGraph> {
    let arb_node = (0u8..5, prop::bool::ANY, prop::collection::vec(0u8..6, 0..5));
    (
        prop::collection::vec(arb_node, 1..60),
        prop::collection::vec((0usize..60, 0usize..60, 0u8..3), 0..80),
    )
        .prop_map(|(nodes, edges)| {
            let mut g = PropertyGraph::new();
            let n = nodes.len();
            for (i, (archetype, labeled, props)) in nodes.into_iter().enumerate() {
                let labels = if labeled {
                    LabelSet::single(&format!("T{archetype}"))
                } else {
                    LabelSet::empty()
                };
                let mut node = Node::new(i as u64, labels);
                for p in props {
                    node.props.insert(
                        pg_model::sym(&format!("k{archetype}_{p}")),
                        PropertyValue::Int(p as i64),
                    );
                }
                let _ = g.add_node(node);
            }
            for (j, (s, t, lbl)) in edges.into_iter().enumerate() {
                let (s, t) = (s % n, t % n);
                let _ = g.add_edge(Edge::new(
                    10_000 + j as u64,
                    NodeId(s as u64),
                    NodeId(t as u64),
                    LabelSet::single(&format!("E{lbl}")),
                ));
            }
            g
        })
}

fn quick_config(seed: u64) -> HiveConfig {
    let mut c = HiveConfig::default().with_seed(seed);
    if let pg_hive::EmbeddingKind::Word2Vec(ref mut w) = c.embedding {
        w.dim = 4;
        w.epochs = 1;
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// §4.7 type completeness: every node's labels and properties are
    /// covered by some discovered type — no information is lost.
    #[test]
    fn type_completeness(graph in arb_graph(), seed in 0u64..1000) {
        let result = PgHive::new(quick_config(seed)).discover_graph(&graph);
        let (bad_nodes, bad_edges) = result.schema.uncovered_elements(&graph);
        prop_assert!(bad_nodes.is_empty(), "uncovered nodes {bad_nodes:?}");
        prop_assert!(bad_edges.is_empty(), "uncovered edges {bad_edges:?}");
    }

    /// Every instance is assigned to exactly one type.
    #[test]
    fn assignment_is_a_partition(graph in arb_graph(), seed in 0u64..1000) {
        let result = PgHive::new(quick_config(seed)).discover_graph(&graph);
        prop_assert_eq!(result.node_assignment().len(), graph.node_count());
        prop_assert_eq!(result.edge_assignment().len(), graph.edge_count());
        let member_total: usize = result.state.node_accums.values().map(|a| a.members().len()).sum();
        prop_assert_eq!(member_total, graph.node_count());
    }

    /// §4.7 constraint soundness: a property marked MANDATORY appears in
    /// every instance of its type.
    #[test]
    fn mandatory_properties_are_sound(graph in arb_graph(), seed in 0u64..1000) {
        let result = PgHive::new(quick_config(seed)).discover_graph(&graph);
        for (tid, accum) in &result.state.node_accums {
            let t = result.schema.node_types.iter().find(|t| t.id == *tid).unwrap();
            for (key, spec) in &t.properties {
                if spec.presence == Some(Presence::Mandatory) {
                    for node_id in accum.members() {
                        let node = graph.node(*node_id).unwrap();
                        prop_assert!(
                            node.props.contains_key(key),
                            "mandatory {key} missing on node {node_id:?}"
                        );
                    }
                }
            }
        }
    }

    /// §4.7 datatype compatibility: every observed value is admitted by
    /// the inferred (possibly generalized) type.
    #[test]
    fn datatypes_admit_all_values(graph in arb_graph(), seed in 0u64..1000) {
        let result = PgHive::new(quick_config(seed)).discover_graph(&graph);
        for (tid, accum) in &result.state.node_accums {
            let t = result.schema.node_types.iter().find(|t| t.id == *tid).unwrap();
            for node_id in accum.members() {
                let node = graph.node(*node_id).unwrap();
                for (key, value) in &node.props {
                    if let Some(dt) = t.properties.get(key).and_then(|s| s.datatype) {
                        prop_assert!(dt.admits(value), "{dt:?} rejects {value:?}");
                    }
                }
            }
        }
    }

    /// §4.7 incrementality: batch processing forms a monotone chain and
    /// ends covering the whole graph.
    #[test]
    fn incremental_chain_is_monotone(graph in arb_graph(), seed in 0u64..1000, k in 2usize..5) {
        let mut session = HiveSession::new(quick_config(seed));
        let mut prev = session.schema().clone();
        for batch in split_batches(&graph, k, seed) {
            session.process_graph_batch(&batch);
            let cur = session.schema().clone();
            prop_assert!(prev.is_generalized_by(&cur));
            prev = cur;
        }
        let result = session.finish();
        let (bad_nodes, _) = result.schema.uncovered_elements(&graph);
        prop_assert!(bad_nodes.is_empty());
    }

    /// Cardinality upper bounds are sound: no source exceeds max_out, no
    /// target exceeds max_in, within each discovered edge type.
    #[test]
    fn cardinality_bounds_are_sound(graph in arb_graph(), seed in 0u64..1000) {
        use std::collections::{HashMap, HashSet};
        let result = PgHive::new(quick_config(seed)).discover_graph(&graph);
        for (tid, accum) in &result.state.edge_accums {
            let t = result.schema.edge_types.iter().find(|t| t.id == *tid).unwrap();
            let Some(card) = t.cardinality else { continue };
            let mut out: HashMap<NodeId, HashSet<NodeId>> = HashMap::new();
            for &(s, tt) in accum.endpoints() {
                out.entry(s).or_default().insert(tt);
            }
            for targets in out.values() {
                prop_assert!(targets.len() as u64 <= card.max_out);
            }
        }
    }
}
