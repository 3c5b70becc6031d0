//! Ablations around the clustering/merging design:
//!
//! * signature (AND) clustering throughput on each bench dataset;
//! * endpoint-aware vs label-only edge merging;
//! * `integrate_scaling`: Algorithm 2 answering its lookups from the
//!   per-call type index vs the linear scan it replaced (the test
//!   oracle), one batch of 500 clusters against 100 / 1 000 / 10 000
//!   types;
//! * `assemble_sparse`: cluster assembly, whose chunks report only the
//!   clusters they touched, on a small pattern-rich batch and a large
//!   uniform one (`results/integrate_scaling.txt` has the same group run
//!   on the dense fold it replaced).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pg_bench::{bench_graph, bench_hive_config, BENCH_DATASETS};
use pg_hive::cluster::{assemble, NodeCluster};
use pg_hive::extract::{integrate, MergeOptions};
use pg_hive::features::FeatureSpace;
use pg_hive::{DiscoveryState, LshMethod, PgHive};
use pg_lsh::{Clustering, EuclideanLsh};
use pg_model::{LabelSet, Node, TypeId};
use pg_store::{load, NodeRecord};
use std::hint::black_box;
use std::time::Duration;

#[path = "../../core/tests/reference/mod.rs"]
mod reference;

fn merge_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    for ds in BENCH_DATASETS {
        let (graph, _) = bench_graph(ds, 0.1, 1.0);
        let (nodes, edges) = load(&graph);
        let cfg = bench_hive_config(LshMethod::Elsh);
        let fs = FeatureSpace::build(&nodes, &edges, &cfg.embedding, 42);
        let vectors: Vec<_> = nodes.iter().map(|n| fs.vector(n)).collect();
        let lsh = EuclideanLsh::new(fs.dim_of::<NodeRecord>().max(1), 25, 2.0, 42);

        group.bench_with_input(
            BenchmarkId::new("cluster_signature_and", ds),
            &vectors,
            |b, v| b.iter(|| black_box(lsh.cluster_signature(v))),
        );

        // Endpoint-aware vs label-only edge merging (full pipeline).
        group.bench_with_input(
            BenchmarkId::new("edges_endpoint_aware", ds),
            &graph,
            |b, g| {
                let engine = PgHive::new(bench_hive_config(LshMethod::Elsh));
                b.iter(|| black_box(engine.discover_graph(g)))
            },
        );
        group.bench_with_input(BenchmarkId::new("edges_label_only", ds), &graph, |b, g| {
            let mut cfg = bench_hive_config(LshMethod::Elsh);
            cfg.edge_endpoint_aware = false;
            let engine = PgHive::new(cfg);
            b.iter(|| black_box(engine.discover_graph(g)))
        });
    }
    group.finish();
}

fn integrate_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrate_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    type Integrate = fn(&mut DiscoveryState, Vec<NodeCluster>, MergeOptions) -> Vec<TypeId>;
    let sides: [(&str, Integrate); 2] = [
        ("indexed", integrate),
        ("linear_scan", reference::naive_integrate),
    ];
    for n_types in [100, 1_000, 10_000] {
        let input = reference::scaling_input(n_types);
        for (side, integrate) in sides {
            group.bench_function(BenchmarkId::new(side, n_types), |b| {
                b.iter_batched(
                    || input.clone(),
                    |(mut state, batch)| {
                        integrate(&mut state, batch, MergeOptions::default());
                        state
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn assemble_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("assemble_sparse");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    // A batch of `incremental_diverse`'s shape, and `offline_uniform`'s.
    for (records, num_clusters) in [(600, 400), (90_000, 40)] {
        let nodes: Vec<NodeRecord> = (0..records)
            .map(|i| {
                let cid = i % num_clusters;
                Node::new(i as u64, LabelSet::single(&format!("L{}", cid % 7)))
                    .with_prop(&format!("p{}", cid % 11), 1i64)
                    .with_prop("name", "n")
            })
            .collect();
        let clustering = Clustering {
            assignment: (0..records).map(|i| i % num_clusters).collect(),
            num_clusters,
        };
        let shape = format!("{records}_records_{num_clusters}_clusters");
        group.bench_function(BenchmarkId::new("nodes", shape), |b| {
            b.iter(|| black_box(assemble::<NodeCluster>(&nodes, &clustering)))
        });
    }
    group.finish();
}

criterion_group!(benches, merge_ablation, integrate_scaling, assemble_sparse);
criterion_main!(benches);
