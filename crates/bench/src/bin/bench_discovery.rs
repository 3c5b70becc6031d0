//! End-to-end discovery benchmark with a tracked, machine-readable
//! baseline.
//!
//! Runs the full PG-HIVE pipeline over seeded `pg-synth` graphs at the
//! configured sizes, and writes
//! `BENCH_discovery.json` at the repo root (or `--out`). Reported per
//! run: the per-stage `BatchTiming` breakdown, the post-processing
//! (`finish`) time, the structural-fingerprint dedup ratio, and the
//! canonical schema content hash.
//!
//! Two invariants are *asserted*, not just reported (CI's `perf-smoke`
//! job relies on this):
//!
//! * every repeat produces the **same schema content hash** at every
//!   size;
//! * the dedup ratio is ≥ 1;
//! * the zero-copy JSONL decoder and the `serde_json` reference decoder
//!   (`crates/store/tests/reference`) load the same graph.
//!
//! Timings are reported without thresholds — regressions are judged by
//! humans diffing the JSON across commits, not by flaky CI gates.
//!
//! ```text
//! bench_discovery [--sizes 100000,1000000] [--seed 42] [--repeat 2] [--out <file>]
//! ```
//!
//! Each configuration is run `--repeat` times and the fastest run is
//! reported — the first pass over a freshly synthesized graph pays
//! page-fault warmup that would otherwise bias whichever configuration
//! happens to run first.

use pg_hive::{content_hash_hex, EmbeddingKind, HiveConfig, HiveSession};
use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
use serde_json::JsonValue;
use std::time::Instant;

#[path = "../../../store/tests/reference/mod.rs"]
mod reference;

// The vendored `serde_json` has no `json!` macro, so the report is
// assembled from the `Value` IR directly; these keep the call sites
// readable.
fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: usize) -> JsonValue {
    JsonValue::U64(n as u64)
}

fn float(x: f64) -> JsonValue {
    JsonValue::F64(x)
}

fn text(s: &str) -> JsonValue {
    JsonValue::Str(s.to_string())
}

struct Opts {
    sizes: Vec<usize>,
    seed: u64,
    repeat: usize,
    out: String,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        sizes: vec![100_000, 1_000_000],
        seed: 42,
        repeat: 2,
        out: "BENCH_discovery.json".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", args[i]))?;
        match args[i].as_str() {
            "--sizes" => {
                opts.sizes = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("bad size {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                if opts.sizes.is_empty() {
                    return Err("--sizes must name at least one size".into());
                }
            }
            "--seed" => {
                opts.seed = value.parse().map_err(|_| "bad --seed".to_string())?;
            }
            "--repeat" => {
                opts.repeat = value.parse().map_err(|_| "bad --repeat".to_string())?;
                if opts.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => opts.out = value.clone(),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(opts)
}

/// One pipeline configuration under test. Hashed embeddings keep the
/// featurize stage training-free (Word2Vec training time would swamp
/// the hot path this benchmark tracks); post-processing is deferred to
/// `finish()` and timed separately, with sampled datatype inference.
fn config(seed: u64) -> HiveConfig {
    HiveConfig {
        embedding: EmbeddingKind::Hashed { dim: 32 },
        post_processing: false,
        datatype_sampling: Some(Default::default()),
        ..HiveConfig::default()
    }
    .with_seed(seed)
}

struct Run {
    timing: pg_hive::BatchTiming,
    finish_ms: f64,
    total_ms: f64,
    hash: String,
}

fn run_once(nodes: &[pg_store::NodeRecord], edges: &[pg_store::EdgeRecord], seed: u64) -> Run {
    let start = Instant::now();
    let mut session = HiveSession::new(config(seed));
    let timing = session.process_batch(nodes, edges);
    let t_finish = Instant::now();
    let result = session.finish();
    let finish_ms = ms(t_finish.elapsed());
    let total_ms = ms(start.elapsed());
    Run {
        timing,
        finish_ms,
        total_ms,
        hash: content_hash_hex(&result.schema),
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn dedup_json(d: &pg_hive::DedupStats) -> JsonValue {
    obj(vec![
        ("records", num(d.records)),
        ("distinct", num(d.distinct)),
        ("ratio", float(d.ratio())),
    ])
}

fn run_json(r: &Run) -> JsonValue {
    let t = &r.timing;
    obj(vec![
        ("nodes", num(t.nodes)),
        ("edges", num(t.edges)),
        ("node_dedup", dedup_json(&t.node_dedup)),
        ("edge_dedup", dedup_json(&t.edge_dedup)),
        (
            "stages_ms",
            obj(vec![
                ("preprocess", float(ms(t.preprocess))),
                ("cluster", float(ms(t.cluster))),
                ("cluster_assemble", float(ms(t.assemble))),
                ("extract", float(ms(t.extract))),
                ("finish", float(r.finish_ms)),
            ]),
        ),
        ("batch_ms", float(ms(t.total))),
        ("total_ms", float(r.total_ms)),
        ("schema_hash", text(&r.hash)),
    ])
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_discovery: {e}");
            std::process::exit(2);
        }
    };

    // A realistic-ish synthetic workload: 8 node types / 6 edge types
    // with mild structural noise, so fingerprints are numerous enough to
    // exercise the grouping (optional props toggle per record) while
    // still collapsing by orders of magnitude.
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

    let mut size_reports = Vec::new();
    for &size in &opts.sizes {
        eprintln!("== size {size} ==");
        let schema = random_schema(&params, opts.seed);
        let spec = SynthSpec::new(schema).sized_for(size).with_noise(noise);
        let out = synthesize(&spec, opts.seed);
        let (nodes, edges) = pg_store::load(&out.graph);
        eprintln!("   generated {} nodes, {} edges", nodes.len(), edges.len());

        // Parse stage: serialize the graph once, then time the ingest
        // parse over the same bytes through the zero-copy decoder (the
        // default path) and the serde_json reference path. Both decoded
        // graphs must re-serialize to the input byte-for-byte — this is
        // the CI self-check that the zero-copy path is bit-identical.
        let doc = pg_store::jsonl::to_jsonl(&out.graph);
        let records = out.graph.node_count() + out.graph.edge_count();
        let mut parse_ms = f64::INFINITY;
        let mut parse_reference_ms = f64::INFINITY;
        for rep in 0..opts.repeat {
            let t = Instant::now();
            let (g, q) =
                pg_store::jsonl::from_jsonl_with_policy(&doc, pg_store::ErrorPolicy::Strict)
                    .expect("synthesized dump is clean");
            parse_ms = parse_ms.min(ms(t.elapsed()));
            let t = Instant::now();
            let (g_ref, q_ref) =
                reference::from_jsonl_with_policy_reference(&doc, pg_store::ErrorPolicy::Strict)
                    .expect("synthesized dump is clean");
            parse_reference_ms = parse_reference_ms.min(ms(t.elapsed()));
            if rep == 0 {
                assert_eq!(q.len(), 0);
                assert_eq!(q_ref.len(), 0);
                let round = pg_store::jsonl::to_jsonl(&g);
                assert_eq!(round, doc, "zero-copy parse diverged from input");
                assert_eq!(
                    pg_store::jsonl::to_jsonl(&g_ref),
                    round,
                    "reference parse diverged from zero-copy parse"
                );
            }
        }
        eprintln!(
            "   parse ({} records, {:.1} MiB): {parse_ms:.1} ms zero-copy vs {parse_reference_ms:.1} ms reference ({:.2}x)",
            records,
            doc.len() as f64 / (1024.0 * 1024.0),
            parse_reference_ms / parse_ms,
        );

        // Best-of-`repeat`: the first pass over a freshly synthesized
        // graph pays page-fault warmup that can exceed the work itself on
        // small machines, so the minimum is the stable statistic. Hashes
        // are asserted across *all* runs.
        let mut best: Option<Run> = None;
        for _ in 0..opts.repeat {
            let r = run_once(&nodes, &edges, opts.seed);
            eprintln!(
                "   batch {:8.1} ms  (pre {:.1} / cluster {:.1}, of it assemble {:.1} / extract {:.1})  finish {:.1} ms  node-ratio {:.0}  hash {}",
                ms(r.timing.total),
                ms(r.timing.preprocess),
                ms(r.timing.cluster),
                ms(r.timing.assemble),
                ms(r.timing.extract),
                r.finish_ms,
                r.timing.node_dedup.ratio(),
                &r.hash,
            );
            // Invariant 1: every repeat agrees on the schema.
            if let Some(b) = &best {
                assert_eq!(r.hash, b.hash, "schema hash diverged across repeats");
            }
            // Invariant 2: dedup never inflates the input.
            assert!(r.timing.node_dedup.ratio() >= 1.0);
            assert!(r.timing.edge_dedup.ratio() >= 1.0);
            if best.as_ref().is_none_or(|b| r.total_ms < b.total_ms) {
                best = Some(r);
            }
        }
        let best = best.expect("repeat >= 1");
        let hash = best.hash.clone();

        size_reports.push(obj(vec![
            ("size", num(size)),
            ("nodes", num(nodes.len())),
            ("edges", num(edges.len())),
            ("schema_hash", text(&hash)),
            (
                "parse",
                obj(vec![
                    ("parse_ms", float(parse_ms)),
                    ("parse_reference_ms", float(parse_reference_ms)),
                    ("speedup", float(parse_reference_ms / parse_ms)),
                    ("bytes", num(doc.len())),
                    ("records", num(records)),
                ]),
            ),
            ("runs", JsonValue::Array(vec![run_json(&best)])),
        ]));
    }

    let report = obj(vec![
        ("benchmark", text("bench_discovery")),
        ("seed", JsonValue::U64(opts.seed)),
        (
            "workload",
            obj(vec![
                ("node_types", num(params.node_types)),
                ("edge_types", num(params.edge_types)),
                ("unlabeled_fraction", float(noise.unlabeled_fraction)),
                ("missing_optional_rate", float(noise.missing_optional_rate)),
                ("embedding", text("hashed-32")),
                ("method", text("elsh-adaptive")),
            ]),
        ),
        ("sizes", JsonValue::Array(size_reports)),
    ]);
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, text + "\n").expect("write benchmark report");
    eprintln!("wrote {}", opts.out);
}
