//! Incremental-vs-static integration tests: batch processing must yield
//! the same labeled types as one-shot discovery and maintain the
//! monotone schema chain (§4.6/§4.7).

use pg_datasets::{generate, inject_noise, spec_by_name, NoiseConfig};
use pg_hive::{HiveConfig, HiveSession, PgHive};
use pg_model::SchemaGraph;
use pg_store::split_batches;

fn sorted_node_labels(s: &SchemaGraph) -> Vec<String> {
    let mut v: Vec<String> = s.node_types.iter().map(|t| t.labels.to_string()).collect();
    v.sort();
    v
}

#[test]
fn incremental_equals_static_on_clean_data() {
    for name in ["POLE", "LDBC", "CORD19"] {
        let spec = spec_by_name(name).unwrap().scaled(0.06);
        let (graph, _) = generate(&spec, 5);

        let static_result = PgHive::new(HiveConfig::default()).discover_graph(&graph);

        let mut session = HiveSession::new(HiveConfig::default());
        for batch in split_batches(&graph, 10, 9) {
            session.process_graph_batch(&batch);
        }
        let inc = session.finish();

        assert_eq!(
            sorted_node_labels(&inc.schema),
            sorted_node_labels(&static_result.schema),
            "{name}: incremental and static disagree on node types"
        );
        // Edge-type counts match up to the inherent LSH variance: a rare
        // full-signature collision inside one small batch can merge one
        // extra pair of same-endpoint types (probability < 1e-3 per
        // pair, but nonzero — exact equality would be a flaky test).
        let (a, b) = (
            inc.schema.edge_types.len() as i64,
            static_result.schema.edge_types.len() as i64,
        );
        assert!(
            (a - b).abs() <= 1,
            "{name}: edge type counts too far apart: incremental {a} vs static {b}"
        );
    }
}

#[test]
fn monotone_chain_holds_under_noise() {
    let spec = spec_by_name("ICIJ").unwrap().scaled(0.06);
    let (mut graph, _) = generate(&spec, 6);
    inject_noise(
        &mut graph,
        NoiseConfig {
            property_removal: 0.3,
            label_availability: 0.5,
            seed: 2,
        },
    );
    let mut session = HiveSession::new(HiveConfig::default());
    let mut prev = session.schema().clone();
    for batch in split_batches(&graph, 8, 3) {
        session.process_graph_batch(&batch);
        let cur = session.schema().clone();
        assert!(prev.is_generalized_by(&cur), "chain broken");
        prev = cur;
    }
}

#[test]
fn instance_counts_accumulate_exactly_once() {
    let spec = spec_by_name("MB6").unwrap().scaled(0.06);
    let (graph, _) = generate(&spec, 8);
    let mut session = HiveSession::new(HiveConfig::default());
    for batch in split_batches(&graph, 5, 1) {
        session.process_graph_batch(&batch);
    }
    let result = session.finish();
    let node_total: usize = result
        .state
        .node_accums
        .values()
        .map(|a| a.members().len())
        .sum();
    let edge_total: usize = result
        .state
        .edge_accums
        .values()
        .map(|a| a.members().len())
        .sum();
    assert_eq!(node_total, graph.node_count());
    assert_eq!(edge_total, graph.edge_count());
    // No duplicate assignment.
    assert_eq!(result.node_assignment().len(), graph.node_count());
    assert_eq!(result.edge_assignment().len(), graph.edge_count());
}

#[test]
fn post_processing_after_finish_is_complete() {
    let spec = spec_by_name("POLE").unwrap().scaled(0.06);
    let (graph, _) = generate(&spec, 8);
    let config = HiveConfig {
        post_processing: false, // only the final pass runs
        ..HiveConfig::default()
    };
    let mut session = HiveSession::new(config);
    for batch in split_batches(&graph, 4, 1) {
        session.process_graph_batch(&batch);
    }
    let result = session.finish();
    for t in &result.schema.node_types {
        for (key, spec) in &t.properties {
            assert!(
                spec.presence.is_some(),
                "{}/{key} missing presence",
                t.labels
            );
            assert!(
                spec.datatype.is_some(),
                "{}/{key} missing datatype",
                t.labels
            );
        }
    }
    for t in &result.schema.edge_types {
        assert!(
            t.instance_count == 0 || t.cardinality.is_some(),
            "{} missing cardinality",
            t.labels
        );
    }
}
