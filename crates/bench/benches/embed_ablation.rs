//! Ablation: Word2Vec vs hashed label embeddings — both the embedding
//! cost and the end-to-end discovery cost. (Accuracy comparison lives in
//! the integration tests; Criterion measures time.)
//!
//! The `w2v_train` group reports the record scan of the shipped corpus
//! builder and of the reference it is pinned against (`pg-embed`'s test
//! oracle) on a corpus of the benchmark's `offline_uniform` shape, and
//! both trainers' SGNS steps/s on one of its `incremental_diverse` shape,
//! where the step budget is slack and the steps are the cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pg_bench::{bench_graph, bench_hive_config, BENCH_DATASETS};
use pg_embed::{build_sentences, Word2Vec, Word2VecConfig};
use pg_hive::{EmbeddingKind, LshMethod, PgHive};
use std::hint::black_box;
use std::time::Duration;

#[path = "../../embed/tests/reference/mod.rs"]
mod reference;

fn embed_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("embed_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    for ds in BENCH_DATASETS {
        let (graph, _) = bench_graph(ds, 0.0, 1.0);
        let (nodes, edges) = pg_store::load(&graph);

        // Training cost alone.
        let corpus = build_sentences(&nodes, &edges);
        group.bench_with_input(BenchmarkId::new("word2vec_train", ds), &corpus, |b, s| {
            let cfg = Word2VecConfig {
                dim: 8,
                epochs: 4,
                ..Default::default()
            };
            b.iter(|| black_box(Word2Vec::train(s, &cfg)))
        });

        // End-to-end discovery with each embedder.
        group.bench_with_input(BenchmarkId::new("discover_word2vec", ds), &graph, |b, g| {
            let engine = PgHive::new(bench_hive_config(LshMethod::Elsh));
            b.iter(|| black_box(engine.discover_graph(g)))
        });
        group.bench_with_input(BenchmarkId::new("discover_hashed", ds), &graph, |b, g| {
            let mut cfg = bench_hive_config(LshMethod::Elsh);
            cfg.embedding = EmbeddingKind::Hashed { dim: 8 };
            let engine = PgHive::new(cfg);
            b.iter(|| black_box(engine.discover_graph(g)))
        });
    }
    group.finish();
}

fn w2v_train(c: &mut Criterion) {
    // The `offline_uniform` corpus at the seed its tables are recorded at.
    let (nodes, edges) = reference::uniform_records(100_000, 42);

    let mut group = c.benchmark_group("w2v_train");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .throughput(Throughput::Elements((nodes.len() + edges.len()) as u64));
    group.bench_function("sentences/reference", |b| {
        b.iter(|| black_box(reference::reference_sentences(&nodes, &edges)))
    });
    group.bench_function("sentences/label_corpus", |b| {
        b.iter(|| black_box(build_sentences(&nodes, &edges)))
    });
    // 30 pair kinds: the budget binds, and the pair list and the kind
    // count cost as much as the 23 040 steps.
    let cfg = Word2VecConfig::default();
    let uniform = build_sentences(&nodes, &edges);
    group.bench_function("train/uniform", |b| {
        b.iter(|| black_box(Word2Vec::train(&uniform, &cfg)))
    });

    // The whole `incremental_diverse` file: 1 678 pair kinds, one step
    // per pair and epoch. The count is what the trainer reports it ran
    // (the reference runs as many: `bit_identity.rs` compares the two).
    let (nodes, edges) = reference::diverse_records(20_000, 42);
    let corpus = build_sentences(&nodes, &edges);
    let sentences = reference::reference_sentences(&nodes, &edges);
    let steps = Word2Vec::train(&corpus, &cfg).steps();
    group.throughput(Throughput::Elements(steps as u64));
    group.bench_function("steps/reference", |b| {
        b.iter(|| black_box(reference::ReferenceWord2Vec::train(&sentences, &cfg)))
    });
    group.bench_function("steps/kernel_const8", |b| {
        b.iter(|| black_box(Word2Vec::train(&corpus, &cfg)))
    });
    // dim 7 takes the run-time-length instantiation of the same kernel.
    let dyn_cfg = Word2VecConfig { dim: 7, ..cfg };
    group.bench_function("steps/kernel_dyn7", |b| {
        b.iter(|| black_box(Word2Vec::train(&corpus, &dyn_cfg)))
    });
    group.finish();
}

criterion_group!(benches, w2v_train, embed_ablation);
criterion_main!(benches);
