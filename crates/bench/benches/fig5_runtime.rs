//! Figure 5: execution time until type discovery, per dataset × noise ×
//! method. The shape to verify: PG-HIVE flat w.r.t. noise and faster
//! than SchemI; GMM grows with noise.
//!
//! Also reports sequential-vs-parallel scaling of the discovery hot
//! path via the `threads` knob: `PG-HIVE-ELSH-threads{1,N}` benches the
//! same engine at one worker and at full parallelism (the schema is
//! bit-identical either way), and `fig5_thread_scaling` prints the
//! per-stage breakdown from `BatchTiming` with the resulting speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_baselines::{GmmSchema, SchemI};
use pg_bench::{bench_graph, bench_hive_config, BENCH_DATASETS};
use pg_hive::{LshMethod, PgHive};
use std::hint::black_box;
use std::time::Duration;

fn fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_runtime");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    for ds in BENCH_DATASETS {
        for noise in [0.0, 0.4] {
            let (graph, _) = bench_graph(ds, noise, 1.0);
            let label = format!("{ds}/noise{:.0}", noise * 100.0);

            group.bench_with_input(BenchmarkId::new("PG-HIVE-ELSH", &label), &graph, |b, g| {
                let engine = PgHive::new(bench_hive_config(LshMethod::Elsh));
                b.iter(|| black_box(engine.discover_graph(g)))
            });
            group.bench_with_input(
                BenchmarkId::new("PG-HIVE-MinHash", &label),
                &graph,
                |b, g| {
                    let engine = PgHive::new(bench_hive_config(LshMethod::MinHash));
                    b.iter(|| black_box(engine.discover_graph(g)))
                },
            );
            // Sequential vs parallel hot path: same config, same output
            // schema, different thread count.
            for threads in [1usize, 0] {
                let name = if threads == 1 {
                    "PG-HIVE-ELSH-threads1"
                } else {
                    "PG-HIVE-ELSH-threadsN"
                };
                group.bench_with_input(BenchmarkId::new(name, &label), &graph, |b, g| {
                    let engine =
                        PgHive::new(bench_hive_config(LshMethod::Elsh).with_threads(threads));
                    b.iter(|| black_box(engine.discover_graph(g)))
                });
            }
            group.bench_with_input(BenchmarkId::new("GMMSchema", &label), &graph, |b, g| {
                let engine = GmmSchema::new();
                b.iter(|| black_box(engine.discover(g)))
            });
            group.bench_with_input(BenchmarkId::new("SchemI", &label), &graph, |b, g| {
                let engine = SchemI::new();
                b.iter(|| black_box(engine.discover(g)))
            });
        }
    }
    group.finish();
}

/// Per-stage thread-scaling report from `BatchTiming`: one sequential
/// and one fully-parallel discovery per dataset, with the stage
/// breakdown and end-to-end speedup. (On a single-core host the ratio
/// is ≈ 1×; with 8 cores the hot path targets ≥ 2×.)
fn fig5_thread_scaling(_c: &mut Criterion) {
    println!("\n== fig5_thread_scaling (per-stage, from BatchTiming) ==");
    for ds in BENCH_DATASETS {
        let (graph, _) = bench_graph(ds, 0.0, 1.0);
        let run = |threads: usize| {
            let engine = PgHive::new(bench_hive_config(LshMethod::Elsh).with_threads(threads));
            let result = engine.discover_graph(&graph);
            result.timings[0]
        };
        let seq = run(1);
        let par = run(0);
        let speedup = seq.total.as_secs_f64() / par.total.as_secs_f64().max(1e-9);
        println!(
            "{ds:<8} threads {}->{}  preprocess {:>10?} -> {:>10?}  lsh {:>10?} -> {:>10?}  \
             assemble {:>10?} -> {:>10?}  extract {:>10?} -> {:>10?}  total {:>10?} -> {:>10?}  \
             speedup {speedup:.2}x",
            seq.threads,
            par.threads,
            seq.preprocess,
            par.preprocess,
            seq.cluster - seq.assemble,
            par.cluster - par.assemble,
            seq.assemble,
            par.assemble,
            seq.extract,
            par.extract,
            seq.total,
            par.total,
        );
    }
}

criterion_group!(benches, fig5, fig5_thread_scaling);
criterion_main!(benches);
