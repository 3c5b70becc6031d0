//! Integration tests for standalone schema merging (§4.6): two schemas
//! discovered *independently* (e.g. on different machines, different
//! data slices) merge into one that covers everything — the distributed
//! discovery scenario, distinct from the incremental session which
//! shares state.

use pg_datasets::{generate, inject_noise, spec_by_name, NoiseConfig};
use pg_hive::{merge_schemas, HiveConfig, PgHive};
use pg_model::PropertyGraph;
use pg_store::split_batches;

fn halves(name: &str, seed: u64) -> (PropertyGraph, PropertyGraph, PropertyGraph) {
    let spec = spec_by_name(name).unwrap().scaled(0.06);
    let (full, _) = generate(&spec, seed);
    let batches = split_batches(&full, 2, seed);
    let mut a = PropertyGraph::new();
    let mut b = PropertyGraph::new();
    for n in &batches[0].nodes {
        a.add_node(n.clone()).unwrap();
    }
    for n in &batches[1].nodes {
        b.add_node(n.clone()).unwrap();
    }
    // Edges go to whichever half holds both endpoints; cross edges are
    // dropped (each site only sees its own slice).
    for e in full.edges() {
        if a.node(e.src).is_some() && a.node(e.tgt).is_some() {
            a.add_edge(e.clone()).unwrap();
        } else if b.node(e.src).is_some() && b.node(e.tgt).is_some() {
            b.add_edge(e.clone()).unwrap();
        }
    }
    (full, a, b)
}

#[test]
fn merged_schema_covers_both_slices() {
    for name in ["POLE", "LDBC", "MB6"] {
        let (_, a, b) = halves(name, 7);
        let engine = PgHive::new(HiveConfig::default());
        let sa = engine.discover_graph(&a).schema;
        let sb = engine.discover_graph(&b).schema;
        let merged = merge_schemas(&[sa.clone(), sb.clone()]).unwrap();
        assert!(sa.is_generalized_by(&merged), "{name}: S1 ⋢ merge");
        assert!(sb.is_generalized_by(&merged), "{name}: S2 ⋢ merge");
        // The merged schema covers every instance of both slices.
        for (slice, tag) in [(&a, "A"), (&b, "B")] {
            let (bad_nodes, bad_edges) = merged.uncovered_elements(slice);
            assert!(bad_nodes.is_empty(), "{name}/{tag}: nodes uncovered");
            assert!(bad_edges.is_empty(), "{name}/{tag}: edges uncovered");
        }
    }
}

#[test]
fn merged_schema_matches_centralized_discovery_on_labeled_data() {
    let (full, a, b) = halves("POLE", 13);
    let engine = PgHive::new(HiveConfig::default());
    let merged = merge_schemas(&[
        engine.discover_graph(&a).schema,
        engine.discover_graph(&b).schema,
    ])
    .unwrap();
    let central = engine.discover_graph(&full).schema;
    let labels = |s: &pg_model::SchemaGraph| {
        let mut v: Vec<String> = s.node_types.iter().map(|t| t.labels.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(labels(&merged), labels(&central));
}

#[test]
fn merge_tolerates_noisy_slices() {
    let spec = spec_by_name("ICIJ").unwrap().scaled(0.06);
    let (full, _) = generate(&spec, 3);
    let engine = PgHive::new(HiveConfig::default());
    // Same data, two independent noise draws: schemas differ, merge
    // still covers both.
    let mut a = full.clone();
    let mut b = full.clone();
    inject_noise(
        &mut a,
        NoiseConfig {
            property_removal: 0.3,
            label_availability: 0.7,
            seed: 1,
        },
    );
    inject_noise(
        &mut b,
        NoiseConfig {
            property_removal: 0.3,
            label_availability: 0.7,
            seed: 2,
        },
    );
    let sa = engine.discover_graph(&a).schema;
    let sb = engine.discover_graph(&b).schema;
    let merged = merge_schemas(&[sa.clone(), sb.clone()]).unwrap();
    assert!(sa.is_generalized_by(&merged));
    assert!(sb.is_generalized_by(&merged));
    let (bad_a, _) = merged.uncovered_elements(&a);
    let (bad_b, _) = merged.uncovered_elements(&b);
    assert!(bad_a.is_empty() && bad_b.is_empty());
}

/// The hand-built unlabeled-type inputs of the unit tests of the
/// pairwise `pg_model::merge_schemas` this suite used to call (its other
/// cases are inputs of `merge_equivalence.rs` and of the tests above),
/// held to the same expectations through the one merge there is now.
#[test]
fn unlabeled_types_merge_by_structure() {
    use pg_model::{sym, LabelSet, NodeType, SchemaGraph, TypeId};
    let schema = |labels: &[&str], keys: &[&str]| {
        let keys = keys.iter().map(|k| sym(k));
        let mut t = NodeType::new(TypeId(0), LabelSet::from_iter(labels), keys);
        t.is_abstract = labels.is_empty();
        t.instance_count = 1;
        let mut s = SchemaGraph::new();
        s.push_node_type(t);
        s
    };
    // (S₁, S₂, merged node types, of them ABSTRACT): two alike unify; one
    // prefers a similar labeled type; a dissimilar one stays ABSTRACT.
    for (s1, s2, types, abstracts) in [
        (
            schema(&[], &["a", "b", "c"]),
            schema(&[], &["a", "b", "c"]),
            1,
            1,
        ),
        (schema(&["T"], &["a", "b"]), schema(&[], &["a", "b"]), 1, 0),
        (schema(&["T"], &["a", "b"]), schema(&[], &["p", "q"]), 2, 1),
    ] {
        let merged = merge_schemas(&[s1.clone(), s2.clone()]).unwrap();
        assert!(s1.is_generalized_by(&merged) && s2.is_generalized_by(&merged));
        assert_eq!(merged.node_types.len(), types, "{merged}");
        let count = merged.node_types.iter().filter(|t| t.is_abstract).count();
        assert_eq!(count, abstracts, "{merged}");
        let instances: u64 = merged.node_types.iter().map(|t| t.instance_count).sum();
        assert_eq!(instances, 2, "{merged}");
    }
}
