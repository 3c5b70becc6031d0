//! Ablation: Word2Vec vs hashed label embeddings — both the embedding
//! cost and the end-to-end discovery cost. (Accuracy comparison lives in
//! the integration tests; Criterion measures time.)
//!
//! The `w2v_train` group reports SGNS steps/s of the shipped trainer and
//! of the reference it is pinned against (`pg-embed`'s test oracle), on
//! a corpus of the benchmark's `offline_uniform` shape.

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
                max_pairs_per_epoch: 50_000,
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
    let cfg = Word2VecConfig::default();
    let corpus = build_sentences(&nodes, &edges);
    let sentences = reference::reference_sentences(&nodes, &edges);
    // Both trainers run `epochs × min(pairs, max_pairs_per_epoch)` steps;
    // the corpus has more pairs than the cap, so the cap binds.
    let steps = (cfg.epochs * cfg.max_pairs_per_epoch) as u64;

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
    group.throughput(Throughput::Elements(steps));
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
