//! JSONL decode microbenchmarks: the zero-copy interned decoder vs the
//! `serde_json` reference path, per line and per document, over the
//! same synthesized corpus `bench_discovery` times end to end.
//!
//! The per-line pairs isolate the decode cost; the document pair adds
//! graph assembly (node/edge vectors, pending-edge resolution) on top,
//! which is the number the `parse_ms` stage in `BENCH_discovery.json`
//! tracks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pg_store::jsonl::{from_jsonl_with_policy, to_jsonl, Element};
use pg_store::{ErrorPolicy, JsonlDecoder};
use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
use std::hint::black_box;
use std::time::Duration;

#[path = "../../store/tests/reference/mod.rs"]
mod reference;
use reference::from_jsonl_with_policy_reference;

fn corpus(size: usize, seed: u64) -> String {
    let params = SchemaParams {
        node_types: 8,
        edge_types: 6,
        ..Default::default()
    };
    let noise = NoiseProfile {
        unlabeled_fraction: 0.05,
        missing_optional_rate: 0.3,
        ..NoiseProfile::clean()
    };
    let schema = random_schema(&params, seed);
    let spec = SynthSpec::new(schema).sized_for(size).with_noise(noise);
    to_jsonl(&synthesize(&spec, seed).graph)
}

fn jsonl_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("jsonl_decode");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    const SIZE: usize = 50_000;
    let doc = corpus(SIZE, 42);
    let lines: Vec<&str> = doc.lines().filter(|l| !l.trim().is_empty()).collect();
    group.throughput(Throughput::Elements(lines.len() as u64));

    // Per-line decode with a session-lifetime decoder: the symbol pool
    // is warm after the first iteration, so this measures the steady
    // state a long-lived ingest session sees.
    group.bench_with_input(
        BenchmarkId::new("decode_line", "zero_copy"),
        &lines,
        |b, lines| {
            let mut decoder = JsonlDecoder::new();
            b.iter(|| {
                for line in lines {
                    black_box(decoder.decode_element(line).expect("clean corpus"));
                }
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("decode_line", "serde_reference"),
        &lines,
        |b, lines| {
            b.iter(|| {
                for line in lines {
                    black_box(serde_json::from_str::<Element>(line).expect("clean corpus"));
                }
            })
        },
    );

    // Full document load: decode plus graph assembly, the path the
    // `parse_ms` stage in bench_discovery measures.
    group.bench_with_input(
        BenchmarkId::new("document_load", "zero_copy"),
        &doc,
        |b, doc| {
            b.iter(|| {
                black_box(from_jsonl_with_policy(doc, ErrorPolicy::Strict).expect("clean corpus"))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("document_load", "serde_reference"),
        &doc,
        |b, doc| {
            b.iter(|| {
                black_box(
                    from_jsonl_with_policy_reference(doc, ErrorPolicy::Strict)
                        .expect("clean corpus"),
                )
            })
        },
    );

    group.finish();
}

criterion_group!(benches, jsonl_decode);
criterion_main!(benches);
