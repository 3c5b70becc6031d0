//! Helpers shared by the cross-crate integration suites
//! (`equivalence.rs`, `crash_resume.rs`): quick configurations, dataset
//! twins, and canonical views of schemas and assignments.

#![allow(dead_code)] // each test target compiles its own copy

use pg_datasets::{generate, inject_noise, spec_by_name, NoiseConfig};
use pg_hive::{EmbeddingKind, HiveConfig, LshMethod};
use pg_model::{PropertyGraph, SchemaGraph};

/// A quick configuration (small embedding, few epochs) so each proptest
/// case stays cheap; post-processing stays on so constraints, data
/// types, and cardinalities are part of the bit-identity check.
pub fn quick_config(method: LshMethod, seed: u64) -> HiveConfig {
    let mut c = HiveConfig::default().with_seed(seed);
    c.method = method;
    if let EmbeddingKind::Word2Vec(ref mut w) = c.embedding {
        w.dim = 5;
        w.epochs = 2;
    }
    c
}

/// A small dataset twin, optionally noised, for equivalence cases.
pub fn case_graph(dataset: &str, seed: u64, noise: f64, label_availability: f64) -> PropertyGraph {
    let spec = spec_by_name(dataset).expect("known dataset").scaled(0.03);
    let (mut graph, _) = generate(&spec, seed);
    if noise > 0.0 || label_availability < 1.0 {
        inject_noise(
            &mut graph,
            NoiseConfig {
                property_removal: noise,
                label_availability,
                seed: seed ^ 0x5eed,
            },
        );
    }
    graph
}

/// A small synthetic graph whose labels drift: a fifth of the labelled
/// elements carry a noisy label set, so a session reading it in batches
/// keeps meeting label tokens it has not seen — what a dataset twin,
/// whose every batch holds every label, never shows.
pub fn drifting_graph(seed: u64) -> PropertyGraph {
    use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
    let schema = SchemaParams {
        node_types: 16,
        edge_types: 12,
        max_extra_props: 4,
        multi_label_overlap: 0.3,
        optional_rate: 0.5,
    };
    let noise = NoiseProfile {
        unlabeled_fraction: 0.1,
        missing_optional_rate: 0.3,
        label_noise_rate: 0.2,
        missing_mandatory_rate: 0.0,
    };
    let spec = SynthSpec::new(random_schema(&schema, 42))
        .sized_for(1500)
        .with_noise(noise);
    synthesize(&spec, seed).graph
}

/// Every label token `batch` carries, in any role, in the order the
/// embedder's vocabulary lists them.
pub fn label_tokens(batch: &pg_store::GraphBatch) -> Vec<String> {
    let corpus = pg_embed::build_sentences(&batch.nodes, &batch.edges);
    corpus.vocab().to_vec()
}

/// Sorted (element id, type id) pairs — a canonical, order-insensitive
/// view of an assignment map.
pub fn sorted_node_assignment(r: &pg_hive::DiscoveryResult) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = r
        .node_assignment()
        .into_iter()
        .map(|(n, t)| (n.0, t.0))
        .collect();
    v.sort_unstable();
    v
}

pub fn sorted_edge_assignment(r: &pg_hive::DiscoveryResult) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = r
        .edge_assignment()
        .into_iter()
        .map(|(e, t)| (e.0, t.0))
        .collect();
    v.sort_unstable();
    v
}

/// Sorted node-type label-set strings — the schema-equivalence view
/// used by the §4.6 batched-vs-one-shot contract.
pub fn sorted_labels(s: &SchemaGraph) -> Vec<String> {
    let mut v: Vec<String> = s.node_types.iter().map(|t| t.labels.to_string()).collect();
    v.sort();
    v
}
