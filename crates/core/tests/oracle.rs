//! The correctness oracle (metamorphic/differential test layer).
//!
//! `pg-synth` generates property graphs *from* declared ground-truth
//! schemas, so discovery and validation can be checked against exact
//! answers instead of statistical expectations:
//!
//! * **Round trip** — a noise-free generated graph must score node and
//!   edge F1\* = 1.0 (pg-eval's majority F1\* against the generating
//!   assignment) and STRICT-validate against the declared schema with
//!   zero violations.
//! * **Metamorphic invariance** — permuting element ids (and insertion
//!   order) or injectively renaming labels must leave the discovered
//!   schema unchanged (modulo the renaming).
//! * **Bounded degradation** — turning the noise knobs up degrades F1\*
//!   roughly monotonically, and never below a sanity floor.
//!
//! Failures persist their generator seed under `target/oracle-failures/`
//! so CI can upload them as artifacts; each file holds a one-line CLI
//! repro (`pg-hive synth … --seed N` is bit-deterministic).

use pg_eval::oracle::{noise_curve, run_oracle};
use pg_hive::diff;
use pg_hive::{HiveConfig, LshMethod, PgHive};
use pg_synth::{
    permute_ids, random_schema, rename_graph_labels, rename_schema_labels, synthesize,
    NoiseProfile, SchemaParams, SynthSpec,
};
use proptest::prelude::*;

/// Persist a failing case's seed + repro line for CI artifact upload.
fn dump_failure(seed: u64, params: &SchemaParams, what: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .map(|t| t.join("oracle-failures"))
        .unwrap_or_else(|| "target/oracle-failures".into());
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(
        dir.join(format!("seed-{seed}.txt")),
        format!(
            "oracle failure: {what}\nseed: {seed}\nparams: {params:?}\n\
             repro: pg-hive synth --out-dir /tmp/oracle-{seed} --types {} --seed {seed}\n",
            params.node_types
        ),
    );
}

fn params_strategy() -> impl Strategy<Value = SchemaParams> {
    (2usize..6, 0usize..5, 0usize..4, 0.0f64..0.6, 0.0f64..0.8).prop_map(
        |(node_types, edge_types, max_extra_props, multi_label_overlap, optional_rate)| {
            SchemaParams {
                node_types,
                edge_types,
                max_extra_props,
                multi_label_overlap,
                optional_rate,
            }
        },
    )
}

/// The evaluation discovery configuration the oracle runs everywhere.
fn discover(graph: &pg_model::PropertyGraph, seed: u64) -> pg_model::SchemaGraph {
    PgHive::new(pg_eval::runner::eval_hive_config(LshMethod::Elsh, seed))
        .discover_graph(graph)
        .schema
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Noise-free round trip: F1* = 1.0 and zero violations, for ≥ 20
    /// generated schemas.
    #[test]
    fn clean_round_trip_is_perfect(params in params_strategy(), seed in 0u64..1_000_000) {
        let spec = SynthSpec::new(random_schema(&params, seed));
        let r = run_oracle(&spec, seed);
        if r.node_f1.macro_f1 != 1.0
            || r.edge_f1.is_some_and(|f| f.macro_f1 != 1.0)
            || r.strict_violations != 0
        {
            dump_failure(seed, &params, "clean round trip not perfect");
        }
        prop_assert_eq!(r.node_f1.macro_f1, 1.0, "node F1");
        if let Some(ef1) = r.edge_f1 {
            prop_assert_eq!(ef1.macro_f1, 1.0, "edge F1");
        }
        prop_assert_eq!(r.strict_violations, 0, "STRICT violations");
        prop_assert_eq!(r.loose_violations, 0, "LOOSE violations");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Permuting ids and insertion order changes nothing the schema can
    /// see: discovery output is structurally identical, and scoring the
    /// permuted clustering against the remapped truth stays perfect.
    #[test]
    fn discovery_is_invariant_under_id_permutation(
        params in params_strategy(),
        seed in 0u64..1_000_000,
        perm_seed in 0u64..1_000_000,
    ) {
        let out = synthesize(&SynthSpec::new(random_schema(&params, seed)), seed);
        let (permuted, node_map, edge_map) = permute_ids(&out.graph, perm_seed);
        let truth = out.truth.remapped(&node_map, &edge_map);

        let original = discover(&out.graph, seed);
        let shuffled = discover(&permuted, seed);
        let d = diff(&original, &shuffled);
        if !d.is_empty() {
            dump_failure(seed, &params, "id permutation changed the schema");
        }
        prop_assert!(d.is_empty(), "id permutation changed the schema:\n{}", d);

        let cfg = pg_eval::runner::eval_hive_config(LshMethod::Elsh, seed);
        let result = PgHive::new(cfg).discover_graph(&permuted);
        let clusters: Vec<Vec<pg_model::NodeId>> = result.node_members().into_values().collect();
        let f1 = pg_eval::majority_f1(&clusters, &truth.node_type);
        prop_assert_eq!(f1.macro_f1, 1.0, "remapped truth no longer matches");
    }

    /// Discovery commutes with injective label renaming: discovering a
    /// renamed graph equals renaming the discovered schema.
    #[test]
    fn discovery_commutes_with_label_renaming(
        params in params_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let out = synthesize(&SynthSpec::new(random_schema(&params, seed)), seed);
        let rename = |l: &str| format!("NS_{l}");

        let direct = discover(&rename_graph_labels(&out.graph, &rename), seed);
        let expected = rename_schema_labels(&discover(&out.graph, seed), &rename);
        let d = diff(&expected, &direct);
        if !d.is_empty() {
            dump_failure(seed, &params, "label renaming did not commute");
        }
        prop_assert!(d.is_empty(), "renaming did not commute:\n{}", d);
    }
}

/// Monotone-ish degradation: as the shared noise level x rises, node
/// F1* never *recovers* past small jitter, starts at exactly 1.0, and
/// stays above a sanity floor (types remain identifiable from their
/// property keys even with many labels stripped).
#[test]
fn noise_degrades_f1_boundedly() {
    let levels = [0.0, 0.15, 0.3, 0.45];
    let schema = random_schema(&SchemaParams::default(), 42);
    let curve = noise_curve(&schema, &levels, 42);

    assert_eq!(curve[0].node_f1, 1.0, "clean baseline must be perfect");
    assert_eq!(curve[0].strict_violations, 0);
    for w in curve.windows(2) {
        assert!(
            w[1].node_f1 <= w[0].node_f1 + 0.05,
            "F1 recovered as noise rose: {} -> {} (noise {} -> {})",
            w[0].node_f1,
            w[1].node_f1,
            w[0].noise,
            w[1].noise
        );
    }
    let last = curve.last().unwrap();
    assert!(
        last.node_f1 >= 0.25,
        "F1 collapsed below the sanity floor at noise {}: {}",
        last.noise,
        last.node_f1
    );
}

/// The generator is bit-deterministic: identical spec + seed produce an
/// identical serialized graph, and discovery on that graph is identical
/// whatever the inert `threads` field, which callers still set, says.
#[test]
fn generator_and_discovery_are_deterministic_across_threads() {
    let params = SchemaParams::default();
    let spec = SynthSpec::new(random_schema(&params, 7)).with_noise(NoiseProfile {
        unlabeled_fraction: 0.2,
        missing_optional_rate: 0.1,
        label_noise_rate: 0.05,
        missing_mandatory_rate: 0.1,
    });
    let a = synthesize(&spec, 7);
    let b = synthesize(&spec, 7);
    assert_eq!(
        pg_store::jsonl::to_jsonl(&a.graph),
        pg_store::jsonl::to_jsonl(&b.graph),
        "two identical synthesize calls diverged"
    );

    let seq = discover(&a.graph, 7);
    let cfg = HiveConfig {
        threads: 4,
        ..pg_eval::runner::eval_hive_config(LshMethod::Elsh, 7)
    };
    let par = PgHive::new(cfg).discover_graph(&a.graph).schema;
    assert_eq!(seq, par, "thread count leaked into the discovered schema");
}
