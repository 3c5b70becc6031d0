//! # pg-bench
//!
//! The three Criterion benches whose numbers tracked results files cite
//! (Figures 5 and 8 are reproduced by `pg-eval`'s `fig5` and `fig8`):
//!
//! * `merge_ablation` — signature clustering, endpoint-aware vs
//!   label-only edge merging, and Algorithm 2's `integrate_scaling`
//!   (`results/integrate_scaling.txt`).
//! * `embed_ablation` — Word2Vec vs hashed label embeddings
//!   (`results/embed_kernel_review.txt`).
//! * `jsonl_decode` — the JSONL decoder's throughput
//!   (`results/jsonl_decode.txt`).
//!
//! Shared helpers live here so every bench prepares data identically.

use pg_datasets::{generate, inject_noise, spec_by_name, GroundTruth, NoiseConfig};
use pg_embed::Word2VecConfig;
use pg_hive::{EmbeddingKind, HiveConfig, LshMethod};
use pg_model::PropertyGraph;

/// Datasets exercised by default in benches: one small/simple, one
/// multi-labeled, one heterogeneous. (Benching all eight at every noise
/// level would take tens of minutes under Criterion's sampling.)
pub const BENCH_DATASETS: [&str; 3] = ["POLE", "MB6", "ICIJ"];

/// Benchmark scale (fraction of the default generator sizes).
pub const BENCH_SCALE: f64 = 0.25;

/// Prepare one noisy benchmark graph.
pub fn bench_graph(
    dataset: &str,
    noise: f64,
    label_availability: f64,
) -> (PropertyGraph, GroundTruth) {
    let spec = spec_by_name(dataset)
        .unwrap_or_else(|| panic!("unknown dataset {dataset}"))
        .scaled(BENCH_SCALE);
    let (mut graph, gt) = generate(&spec, 42);
    inject_noise(
        &mut graph,
        NoiseConfig {
            property_removal: noise,
            label_availability,
            seed: 7,
        },
    );
    (graph, gt)
}

/// The PG-HIVE configuration used in benchmarks (small embedder, no
/// post-processing — matching the "time until type discovery" scope of
/// Figure 5).
pub fn bench_hive_config(method: LshMethod) -> HiveConfig {
    HiveConfig {
        method,
        embedding: EmbeddingKind::Word2Vec(Word2VecConfig {
            dim: 8,
            epochs: 4,
            ..Default::default()
        }),
        post_processing: false,
        ..Default::default()
    }
}
