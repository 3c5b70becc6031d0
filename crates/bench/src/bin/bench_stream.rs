//! Bounded-memory streaming discovery at scale, with a tracked,
//! machine-readable baseline.
//!
//! Feeds a long synthetic stream — produced round by round from
//! `pg_synth::StreamGen`, never materializing a graph — through one
//! sketched (`HiveConfig::stream`) `HiveSession`, and measures what the
//! bounded-memory claim actually promises:
//!
//! * **flat RSS**: resident memory after the last round must not exceed
//!   the plateau established by the first round plus a fixed slack —
//!   the footprint is a function of the schema, not the stream length;
//! * **checkpoint-size invariance**: the serialized checkpoint after
//!   round N is the same size as after round 1 (± framing) — sketches
//!   saturate, they do not grow;
//! * **schema agreement**: the streamed schema matches an exact batch
//!   discovery of one round within the paper's sampling-error bins
//!   (`pg_eval::stream_agreement`).
//!
//! All three are *asserted*, not just reported — CI's `stream` job runs
//! a reduced-scale smoke of this binary and relies on a non-zero exit
//! to flag regressions. The full run covers 100 M elements:
//!
//! ```text
//! bench_stream [--elements 100000000] [--round 1000000] [--seed 42]
//!              [--rss-slack-mb 512] [--agreement 0.90] [--out BENCH_stream.json]
//! ```
//!
//! Each round uses a derived seed and a disjoint id range
//! (`StreamGen::with_id_offset`), and the generator is dropped after
//! draining, so the *harness* is bounded-memory too — the measured RSS
//! is the session's, not an artifact of retaining the corpus.

use pg_eval::stream_agreement;
use pg_hive::{content_hash_hex, EmbeddingKind, HiveConfig, HiveSession, StreamConfig};
use pg_synth::{random_schema, NoiseProfile, SchemaParams, StreamGen, SynthSpec};
use serde_json::JsonValue;
use std::time::Instant;

// The vendored `serde_json` has no `json!` macro; assemble the report
// from the `Value` IR directly.
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
    elements: usize,
    round: usize,
    seed: u64,
    rss_slack_mb: f64,
    agreement: f64,
    out: String,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        elements: 100_000_000,
        round: 1_000_000,
        seed: 42,
        rss_slack_mb: 512.0,
        agreement: 0.90,
        out: "BENCH_stream.json".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", args[i]))?;
        match args[i].as_str() {
            "--elements" => {
                opts.elements = value.parse().map_err(|_| "bad --elements".to_string())?;
            }
            "--round" => {
                opts.round = value.parse().map_err(|_| "bad --round".to_string())?;
                if opts.round == 0 {
                    return Err("--round must be at least 1".into());
                }
            }
            "--seed" => opts.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--rss-slack-mb" => {
                opts.rss_slack_mb = value
                    .parse()
                    .map_err(|_| "bad --rss-slack-mb".to_string())?;
            }
            "--agreement" => {
                opts.agreement = value.parse().map_err(|_| "bad --agreement".to_string())?;
            }
            "--out" => opts.out = value.clone(),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(opts)
}

/// Resident set size in MiB, from `/proc/self/status` (Linux only —
/// this benchmark asserts on it, so it refuses to run elsewhere).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("bench_stream reads /proc/self/status; run it on Linux");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .expect("VmRSS is a number");
            return kb / 1024.0;
        }
    }
    panic!("no VmRSS line in /proc/self/status");
}

/// The sketched streaming configuration under test. Hashed embeddings
/// keep featurization training-free; post-processing runs once at
/// `finish()` (the streaming deployment shape).
fn stream_config(seed: u64) -> HiveConfig {
    HiveConfig {
        embedding: EmbeddingKind::Hashed { dim: 32 },
        post_processing: false,
        datatype_sampling: Some(Default::default()),
        stream: Some(StreamConfig::default()),
        ..HiveConfig::default()
    }
    .with_seed(seed)
}

/// The exact twin: identical in everything except the accumulators.
fn exact_config(seed: u64) -> HiveConfig {
    HiveConfig {
        stream: None,
        ..stream_config(seed)
    }
}

/// Deterministic per-round seed (ids never feed the RNG, so rounds are
/// independent replicas under translated ids).
fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round + 1)
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_stream: {e}");
            std::process::exit(2);
        }
    };

    // Same workload family as bench_discovery: 8 node / 6 edge types
    // with mild noise, so pattern dedup is exercised without making the
    // stream trivially repetitive.
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
    let schema = random_schema(&params, opts.seed);
    let spec = SynthSpec::new(schema)
        .sized_for(opts.round)
        .with_noise(noise);
    // Upper bound on ids handed out per round; keeps round id ranges
    // disjoint even when edge wiring falls short of its quota.
    let id_span = (spec.schema.node_types.len() * spec.nodes_per_type
        + spec.schema.edge_types.len() * spec.edges_per_type) as u64;
    let rounds = opts.elements.div_ceil(opts.round).max(1);

    eprintln!(
        "== bench_stream: {} elements in {} rounds of ~{} ==",
        opts.elements, rounds, opts.round
    );

    let mut session = HiveSession::new(stream_config(opts.seed));
    let mut round_reports = Vec::new();
    let mut elements_total = 0usize;
    let mut first_round = (0.0f64, 0usize); // (rss_mb, checkpoint_bytes)
    let started = Instant::now();

    for r in 0..rounds as u64 {
        let t0 = Instant::now();
        let gen = StreamGen::new(&spec, round_seed(opts.seed, r)).with_id_offset(r * id_span);
        let mut round_elements = 0usize;
        for chunk in gen {
            round_elements += chunk.len();
            let edges: Vec<pg_store::EdgeRecord> = chunk
                .edges
                .into_iter()
                .map(|se| pg_store::EdgeRecord {
                    edge: se.edge,
                    src_labels: se.src_labels,
                    tgt_labels: se.tgt_labels,
                })
                .collect();
            session.process_batch(&chunk.nodes, &edges);
        }
        elements_total += round_elements;

        let rss = rss_mb();
        let mem = session.memory_stats();
        let checkpoint_bytes = serde_json::to_string(&session.checkpoint())
            .expect("checkpoint serializes")
            .len();
        if r == 0 {
            first_round = (rss, checkpoint_bytes);
        }
        eprintln!(
            "   round {r:3}  {:>9} elements  rss {rss:7.1} MiB  accum {:>8} B  ckpt {:>8} B  {:.1}s",
            elements_total,
            mem.accum_bytes,
            checkpoint_bytes,
            t0.elapsed().as_secs_f64(),
        );
        round_reports.push(obj(vec![
            ("round", num(r as usize)),
            ("elements_total", num(elements_total)),
            ("rss_mb", float(rss)),
            ("accum_bytes", num(mem.accum_bytes)),
            ("checkpoint_bytes", num(checkpoint_bytes)),
            ("round_secs", float(t0.elapsed().as_secs_f64())),
        ]));
    }

    let final_rss = rss_mb();
    let final_checkpoint = serde_json::to_string(&session.checkpoint())
        .expect("checkpoint serializes")
        .len();
    let stream_result = session.finish();
    let stream_hash = content_hash_hex(&stream_result.schema);

    // The exact twin: one materialized round, batch-discovered with the
    // same pipeline but exact accumulators.
    eprintln!("   batch twin: synthesizing + discovering round 0 exactly");
    let batch = pg_synth::synthesize(&spec, round_seed(opts.seed, 0));
    let (nodes, edges) = pg_store::load(&batch.graph);
    let mut exact = HiveSession::new(exact_config(opts.seed));
    exact.process_batch(&nodes, &edges);
    let batch_result = exact.finish();
    let batch_hash = content_hash_hex(&batch_result.schema);
    drop(batch);

    let agreement = stream_agreement(&batch_result.schema, &stream_result.schema);
    eprintln!(
        "   agreement: {} matched / {} batch-only / {} stream-only types, \
         {:.1}% of {} properties in bin 0, {} cardinality disagreements",
        agreement.matched_types,
        agreement.batch_only,
        agreement.stream_only,
        agreement.agreement_fraction() * 100.0,
        agreement.property_bins.properties,
        agreement.cardinality_disagreements,
    );
    eprintln!(
        "   rss: first-round plateau {:.1} MiB, final {:.1} MiB (slack {:.0} MiB)",
        first_round.0, final_rss, opts.rss_slack_mb
    );
    eprintln!(
        "   checkpoint: {} B after round 1, {} B after round {rounds}",
        first_round.1, final_checkpoint
    );

    // Invariant 1: flat RSS — the plateau is set by the first round.
    let rss_ok = final_rss <= first_round.0 + opts.rss_slack_mb;
    // Invariant 2: checkpoint size is stream-length independent. Sketches
    // may still be filling during round 1, so allow them to *shrink or
    // saturate* — final ≤ first × 1.25 + 64 KiB of framing slack.
    let ckpt_ok = final_checkpoint as f64 <= first_round.1 as f64 * 1.25 + 65_536.0;
    // Invariant 3: the streamed schema agrees with the exact batch twin
    // within the sampling-error threshold.
    let agree_ok = agreement.within(opts.agreement);

    let report = obj(vec![
        ("benchmark", text("bench_stream")),
        ("seed", JsonValue::U64(opts.seed)),
        ("elements", num(elements_total)),
        ("rounds", num(rounds)),
        ("round_size", num(opts.round)),
        (
            "workload",
            obj(vec![
                ("node_types", num(params.node_types)),
                ("edge_types", num(params.edge_types)),
                ("unlabeled_fraction", float(noise.unlabeled_fraction)),
                ("missing_optional_rate", float(noise.missing_optional_rate)),
                ("embedding", text("hashed-32")),
                ("method", text("elsh-adaptive")),
                ("stream_config", text("default")),
            ]),
        ),
        (
            "memory",
            obj(vec![
                ("first_round_rss_mb", float(first_round.0)),
                ("final_rss_mb", float(final_rss)),
                ("rss_slack_mb", float(opts.rss_slack_mb)),
                ("first_round_checkpoint_bytes", num(first_round.1)),
                ("final_checkpoint_bytes", num(final_checkpoint)),
            ]),
        ),
        (
            "agreement",
            obj(vec![
                ("matched_types", num(agreement.matched_types)),
                ("batch_only", num(agreement.batch_only)),
                ("stream_only", num(agreement.stream_only)),
                (
                    "cardinality_disagreements",
                    num(agreement.cardinality_disagreements),
                ),
                ("properties", num(agreement.property_bins.properties)),
                (
                    "bins",
                    JsonValue::Array(
                        agreement
                            .property_bins
                            .fractions
                            .iter()
                            .map(|f| float(*f))
                            .collect(),
                    ),
                ),
                ("agreement_fraction", float(agreement.agreement_fraction())),
                ("threshold", float(opts.agreement)),
            ]),
        ),
        ("stream_schema_hash", text(&stream_hash)),
        ("batch_schema_hash", text(&batch_hash)),
        ("total_secs", float(started.elapsed().as_secs_f64())),
        (
            "asserts",
            obj(vec![
                ("flat_rss", JsonValue::Bool(rss_ok)),
                ("checkpoint_invariant", JsonValue::Bool(ckpt_ok)),
                ("schema_agreement", JsonValue::Bool(agree_ok)),
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&opts.out, json + "\n").expect("write benchmark report");
    eprintln!("   wrote {}", opts.out);

    assert!(
        rss_ok,
        "RSS grew with stream length: {:.1} MiB after round 1 vs {final_rss:.1} MiB after round {rounds} (slack {:.0} MiB)",
        first_round.0, opts.rss_slack_mb
    );
    assert!(
        ckpt_ok,
        "checkpoint grew with stream length: {} B after round 1 vs {final_checkpoint} B after round {rounds}",
        first_round.1
    );
    assert!(
        agree_ok,
        "streamed schema disagrees with the exact batch twin: {agreement:?}"
    );
    eprintln!(
        "   OK: flat RSS, invariant checkpoint, schema within sampling error ({:.1}s total)",
        started.elapsed().as_secs_f64()
    );
}
