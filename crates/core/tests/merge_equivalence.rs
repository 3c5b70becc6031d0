//! The distributed-discovery equivalence suite.
//!
//! `pg_hive::merge` claims that shard-parallel discovery is *the same
//! function* as single-node discovery — not approximately, but up to
//! bit-identical canonical form whenever type alignment is unambiguous.
//! This suite pins that claim down property-based, against the same
//! pg-synth ground-truth generator the correctness oracle uses:
//!
//! * **Sharded ≡ single-node** — for any generated schema, any shard
//!   count in {1, 2, 4, 8}, any partition, and any shard ordering, the
//!   merged schema's `content_hash` equals single-node discovery's.
//!   Exercised on clean graphs and on the two noise flavors where
//!   alignment is provably unambiguous: unlabeled-node noise with pure
//!   mandatory key sets (Jaccard-1 absorption), and property-missing
//!   noise with labels intact (exact-label alignment).
//! * **Merge algebra** — `merge_schemas` is commutative (bit-identical),
//!   associative (bit-identical across nestings, hash-equal to the flat
//!   merge), idempotent modulo instance counts (`merge(a,a)` doubles
//!   counts, changes nothing else), and has the empty schema as identity.
//! * **Monotone containment under harsh noise** — when label noise and
//!   unlabeled nodes make alignment genuinely ambiguous, exact equality
//!   is out of reach; what must still hold is the merge-lattice
//!   contract: every shard schema is generalized by the merged schema,
//!   and the merged schema covers every element of the full graph.
//! * **Negative paths** — colliding type names with incompatible
//!   structure (disjoint key sets, incompatible edge endpoints), a >128
//!   distinct-key universe (the `KeyBits` sorted-list fallback), and
//!   empty/zero-shard inputs, which are typed errors, never panics.
//!
//! Failures persist their generator seed under `target/merge-failures/`
//! for CI artifact upload, mirroring the oracle suite.

use pg_hive::{
    canonical_form, content_hash, content_hash_hex, discover_sharded, merge_schemas, merge_states,
    DiscoveryState, HiveConfig, LshMethod, MergeError, PgHive, SHARD_SPLIT_SALT,
};
use pg_model::{DataType, Edge, LabelSet, Node, Presence, PropertyGraph, SchemaGraph};
use pg_store::split_batches;
use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
use proptest::prelude::*;

/// Persist a failing case's seed + repro line for CI artifact upload.
fn dump_failure(seed: u64, params: &SchemaParams, what: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .map(|t| t.join("merge-failures"))
        .unwrap_or_else(|| "target/merge-failures".into());
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(
        dir.join(format!("seed-{seed}.txt")),
        format!(
            "merge-equivalence failure: {what}\nseed: {seed}\nparams: {params:?}\n\
             repro: pg-hive synth --out-dir /tmp/merge-{seed} --types {} --seed {seed}\n",
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

/// The oracle's evaluation config, with post-processing switched back on
/// so the content hash covers constraints, data types (full scan — the
/// mode that carries the bit-equality guarantee), and cardinalities.
fn merge_config(seed: u64) -> HiveConfig {
    let mut cfg = pg_eval::runner::eval_hive_config(LshMethod::Elsh, seed);
    cfg.post_processing = true;
    cfg
}

/// Discover every shard of a fixed partition independently and return
/// the per-shard states (the manual counterpart of `discover_sharded`,
/// for tests that need to reorder or inspect the shard results).
fn shard_states(
    graph: &PropertyGraph,
    n_shards: usize,
    part_seed: u64,
    cfg: &HiveConfig,
) -> Vec<DiscoveryState> {
    let hive = PgHive::new(cfg.clone());
    split_batches(graph, n_shards, part_seed)
        .iter()
        .map(|b| hive.discover(&b.nodes, &b.edges).state)
        .collect()
}

/// Assert `discover_sharded` is content-hash-equal to single-node
/// discovery at every shard count in `shard_counts`.
fn assert_sharded_matches_single(
    graph: &PropertyGraph,
    seed: u64,
    params: &SchemaParams,
    shard_counts: &[usize],
    what: &str,
) -> Result<(), TestCaseError> {
    let cfg = merge_config(seed);
    let single = PgHive::new(cfg.clone()).discover_graph(graph);
    let expect = content_hash_hex(&single.schema);
    for &shards in shard_counts {
        let sharded = discover_sharded(graph, shards, &cfg).unwrap();
        let got = content_hash_hex(&sharded.schema);
        if got != expect {
            dump_failure(seed, params, what);
        }
        prop_assert_eq!(
            got,
            expect.clone(),
            "{}: {} shards\nsingle:\n{}\nsharded:\n{}",
            what,
            shards,
            canonical_form(&single.schema),
            canonical_form(&sharded.schema)
        );
    }
    Ok(())
}

/// Strip instance counts (the only non-idempotent component of the merge
/// algebra — a counting monoid rides along with the schema lattice).
fn zeroed_counts(schema: &SchemaGraph) -> SchemaGraph {
    let mut s = schema.clone();
    for t in &mut s.node_types {
        t.instance_count = 0;
    }
    for t in &mut s.edge_types {
        t.instance_count = 0;
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Headline equivalence: on noise-free graphs, sharded discovery at
    /// 1, 2, 4, and 8 shards is content-hash-equal to single-node
    /// discovery.
    #[test]
    fn sharded_equals_single_node_on_clean_graphs(
        params in params_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let out = synthesize(&SynthSpec::new(random_schema(&params, seed)), seed);
        assert_sharded_matches_single(
            &out.graph, seed, &params, &[1, 2, 4, 8], "clean sharded != single",
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Unlabeled-node noise with pure-mandatory key sets: every stripped
    /// node still carries its type's exact key set, so abstract clusters
    /// absorb into their labeled type at Jaccard 1 on both the sharded
    /// and the single-node path — the hash equality survives.
    #[test]
    fn sharded_equals_single_node_with_unlabeled_noise(
        params in params_strategy(),
        seed in 0u64..1_000_000,
        unlabeled in 0.05f64..0.4,
    ) {
        let mut params = params;
        // Pure mandatory key sets: key-set identity survives label stripping.
        params.optional_rate = 0.0;
        let spec = SynthSpec::new(random_schema(&params, seed)).with_noise(NoiseProfile {
            unlabeled_fraction: unlabeled,
            ..NoiseProfile::clean()
        });
        let out = synthesize(&spec, seed);
        assert_sharded_matches_single(
            &out.graph, seed, &params, &[2, 4, 8], "unlabeled-noise sharded != single",
        )?;
    }

    /// Property-missing noise with labels intact: alignment is by exact
    /// label set on both paths, and presence counts are additive, so
    /// dropped mandatory/optional properties perturb the discovered
    /// constraints identically on the sharded and single-node runs.
    #[test]
    fn sharded_equals_single_node_with_property_noise(
        params in params_strategy(),
        seed in 0u64..1_000_000,
        miss_opt in 0.0f64..0.5,
        miss_man in 0.0f64..0.4,
    ) {
        let spec = SynthSpec::new(random_schema(&params, seed)).with_noise(NoiseProfile {
            missing_optional_rate: miss_opt,
            missing_mandatory_rate: miss_man,
            ..NoiseProfile::clean()
        });
        let out = synthesize(&spec, seed);
        assert_sharded_matches_single(
            &out.graph, seed, &params, &[2, 4, 8], "property-noise sharded != single",
        )?;
    }

    /// Any partition, any shard ordering: merging the same shard states
    /// forward and reversed is bit-identical (type ids included), and an
    /// arbitrary partition seed still reproduces the single-node hash.
    #[test]
    fn merge_is_invariant_under_shard_order_and_partition(
        params in params_strategy(),
        seed in 0u64..1_000_000,
        part_seed in 0u64..1_000_000,
    ) {
        let out = synthesize(&SynthSpec::new(random_schema(&params, seed)), seed);
        let cfg = merge_config(seed);
        let single = content_hash_hex(&PgHive::new(cfg.clone()).discover_graph(&out.graph).schema);

        let states = shard_states(&out.graph, 4, part_seed, &cfg);
        let fwd = merge_states(&states, &cfg).unwrap();
        let mut rev = states;
        rev.reverse();
        let bwd = merge_states(&rev, &cfg).unwrap();
        prop_assert_eq!(
            &fwd.schema, &bwd.schema,
            "shard order changed the merged schema (bit-level)"
        );
        let got = content_hash_hex(&fwd.schema);
        if got != single {
            dump_failure(seed, &params, "arbitrary partition diverged from single-node");
        }
        prop_assert_eq!(got, single, "partition seed {}", part_seed);
    }

    /// The merge algebra on discovered schemas: commutative and
    /// associative bit-identically, idempotent modulo instance counts,
    /// with the empty schema as identity.
    #[test]
    fn merge_algebra_laws(
        params in params_strategy(),
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        seed_c in 0u64..1_000_000,
    ) {
        let cfg = merge_config(seed_a);
        let hive = PgHive::new(cfg.clone());
        let discover = |seed: u64| {
            let out = synthesize(&SynthSpec::new(random_schema(&params, seed)), seed);
            hive.discover_graph(&out.graph).schema
        };
        let (a, b, c) = (discover(seed_a), discover(seed_b), discover(seed_c));

        // Commutativity, bit-identical (canonical renumbering included).
        let ab = merge_schemas(&[a.clone(), b.clone()]).unwrap();
        let ba = merge_schemas(&[b.clone(), a.clone()]).unwrap();
        prop_assert_eq!(&ab, &ba, "merge not commutative");

        // Associativity: both nestings agree bit-identically, and
        // both hash-equal the flat three-way merge.
        let bc = merge_schemas(&[b.clone(), c.clone()]).unwrap();
        let left = merge_schemas(&[ab, c.clone()]).unwrap();
        let right = merge_schemas(&[a.clone(), bc]).unwrap();
        prop_assert_eq!(&left, &right, "merge not associative");
        let flat = merge_schemas(&[a.clone(), b.clone(), c.clone()]).unwrap();
        prop_assert_eq!(
            content_hash(&left),
            content_hash(&flat),
            "nested merge hash != flat merge hash"
        );

        // Idempotence modulo the counting monoid: merge(a, a)
        // doubles every instance count and changes nothing else.
        let once = merge_schemas(std::slice::from_ref(&a)).unwrap();
        let twice = merge_schemas(&[a.clone(), a.clone()]).unwrap();
        prop_assert_eq!(
            canonical_form(&zeroed_counts(&twice)),
            canonical_form(&zeroed_counts(&once)),
            "merge(a, a) changed more than instance counts"
        );
        prop_assert_eq!(twice.node_types.len(), once.node_types.len());
        prop_assert_eq!(twice.edge_types.len(), once.edge_types.len());
        for (t2, t1) in twice.node_types.iter().zip(&once.node_types) {
            prop_assert_eq!(t2.instance_count, 2 * t1.instance_count, "node counts double");
        }
        for (t2, t1) in twice.edge_types.iter().zip(&once.edge_types) {
            prop_assert_eq!(t2.instance_count, 2 * t1.instance_count, "edge counts double");
        }

        // Identity: the empty schema is neutral, bit-identically.
        let with_empty = merge_schemas(&[a.clone(), SchemaGraph::new()]).unwrap();
        prop_assert_eq!(&with_empty, &once, "empty schema is not a merge identity");
    }

    /// Harsh mixed noise (unlabeled nodes + label noise + property
    /// drops) can make type alignment genuinely ambiguous, so exact
    /// equality is not claimed there. The monotone-merge contract still
    /// is: every shard schema is generalized by the merged schema, and
    /// the merged schema covers every element of the full graph.
    #[test]
    fn merged_schema_generalizes_shards_and_covers_graph_under_harsh_noise(
        params in params_strategy(),
        seed in 0u64..1_000_000,
        unlabeled in 0.0f64..0.5,
        miss_opt in 0.0f64..0.5,
        miss_man in 0.0f64..0.4,
        label_noise in 0.0f64..0.3,
    ) {
        let spec = SynthSpec::new(random_schema(&params, seed)).with_noise(NoiseProfile {
            unlabeled_fraction: unlabeled,
            missing_optional_rate: miss_opt,
            missing_mandatory_rate: miss_man,
            label_noise_rate: label_noise,
        });
        let out = synthesize(&spec, seed);
        let cfg = merge_config(seed);
        let states = shard_states(&out.graph, 4, cfg.seed ^ SHARD_SPLIT_SALT, &cfg);
        let merged = merge_states(&states, &cfg).unwrap();

        for (i, s) in states.iter().enumerate() {
            if !s.schema.is_generalized_by(&merged.schema) {
                dump_failure(seed, &params, "shard schema not generalized by merge");
            }
            prop_assert!(
                s.schema.is_generalized_by(&merged.schema),
                "shard {} schema not generalized by the merged schema:\nshard:\n{}\nmerged:\n{}",
                i,
                canonical_form(&s.schema),
                canonical_form(&merged.schema)
            );
        }
        let (bad_nodes, bad_edges) = merged.schema.uncovered_elements(&out.graph);
        if !bad_nodes.is_empty() || !bad_edges.is_empty() {
            dump_failure(seed, &params, "merged schema does not cover the graph");
        }
        prop_assert!(bad_nodes.is_empty(), "uncovered nodes: {:?}", bad_nodes);
        prop_assert!(bad_edges.is_empty(), "uncovered edges: {:?}", bad_edges);
    }
}

// ---------------------------------------------------------------------
// Negative paths and structural edge cases (deterministic).
// ---------------------------------------------------------------------

/// Empty inputs and zero shards are typed errors, never panics — and the
/// errors render something a CLI user can act on.
#[test]
fn degenerate_inputs_are_typed_errors() {
    assert_eq!(merge_schemas(&[]).unwrap_err(), MergeError::EmptyInput);
    assert_eq!(
        merge_states(&[], &HiveConfig::default())
            .map(|_| ())
            .unwrap_err(),
        MergeError::EmptyInput
    );
    assert_eq!(
        discover_sharded(&PropertyGraph::new(), 0, &HiveConfig::default())
            .map(|_| ())
            .unwrap_err(),
        MergeError::ZeroShards
    );
}

fn schema_with_person(count: u64, keys: &[&str]) -> SchemaGraph {
    let mut s = SchemaGraph::new();
    let mut t = pg_model::NodeType::new(
        pg_model::TypeId(0),
        LabelSet::single("Person"),
        keys.iter().map(|k| pg_model::sym(k)),
    );
    t.instance_count = count;
    for k in keys {
        t.properties.insert(
            pg_model::sym(k),
            pg_model::PropertySpec {
                datatype: Some(DataType::Str),
                presence: Some(Presence::Mandatory),
            },
        );
    }
    s.push_node_type(t);
    s
}

/// Colliding node-type names whose key fingerprints share nothing: the
/// merge must not panic and must fall back to the pessimistic union —
/// one type per label set, every one-sided key demoted to OPTIONAL.
#[test]
fn colliding_labels_with_disjoint_keys_union_pessimistically() {
    let a = schema_with_person(3, &["ssn", "name"]);
    let b = schema_with_person(5, &["email", "handle"]);
    let merged = merge_schemas(&[a, b]).unwrap();
    assert_eq!(merged.node_types.len(), 1, "{merged}");
    let t = &merged.node_types[0];
    assert_eq!(t.instance_count, 8);
    for key in ["ssn", "name", "email", "handle"] {
        assert_eq!(
            t.properties[&pg_model::sym(key)].presence,
            Some(Presence::Optional),
            "{key} is absent from one side's instances, so it cannot stay mandatory"
        );
    }
}

/// Colliding edge-type names with incompatible endpoint fingerprints
/// stay distinct under endpoint-aware alignment (the default): a KNOWS
/// between Persons is not a KNOWS between Orgs.
#[test]
fn colliding_edge_labels_with_incompatible_endpoints_stay_distinct() {
    let mk = |node_label: &str| {
        let mut s = SchemaGraph::new();
        let t = pg_model::NodeType::new(pg_model::TypeId(0), LabelSet::single(node_label), []);
        let labels = t.labels.clone();
        let mut t = t;
        t.instance_count = 2;
        s.push_node_type(t);
        let mut e = pg_model::EdgeType::new(
            pg_model::TypeId(0),
            LabelSet::single("KNOWS"),
            [],
            labels.clone(),
            labels,
        );
        e.instance_count = 1;
        s.push_edge_type(e);
        s
    };
    let merged = merge_schemas(&[mk("Person"), mk("Org")]).unwrap();
    assert_eq!(merged.node_types.len(), 2, "{merged}");
    assert_eq!(
        merged.edge_types.len(),
        2,
        "incompatible endpoints must not unify: {merged}"
    );
}

/// A key universe past the 128-bit fast path: one node type carrying 130
/// distinct keys forces the `KeyBits` sorted-list fallback through
/// dedup, clustering, and merge — and the sharded hash still matches
/// single-node.
#[test]
fn overflow_key_universe_matches_single_node() {
    let mut g = PropertyGraph::new();
    for i in 0..40u64 {
        let mut n = Node::new(i, LabelSet::single("Wide"));
        for k in 0..129 {
            n = n.with_prop(&format!("k{k:03}"), k as i64);
        }
        if i % 2 == 0 {
            // One optional key keeps constraint inference non-trivial.
            n = n.with_prop("k129", true);
        }
        g.add_node(n).unwrap();
    }
    for i in 0..20u64 {
        g.add_node(
            Node::new(100 + i, LabelSet::single("Narrow"))
                .with_prop("nid", i as i64)
                .with_prop("note", "n"),
        )
        .unwrap();
    }
    for i in 0..40u64 {
        g.add_edge(
            Edge::new(
                i,
                pg_model::NodeId(i),
                pg_model::NodeId(100 + i % 20),
                LabelSet::single("LINKS"),
            )
            .with_prop("since", 2020i64),
        )
        .unwrap();
    }

    let cfg = merge_config(7);
    let single = PgHive::new(cfg.clone()).discover_graph(&g);
    let wide = single
        .schema
        .node_types
        .iter()
        .find(|t| t.labels.contains("Wide"))
        .expect("Wide type discovered");
    assert_eq!(wide.properties.len(), 130, "all 130 keys survive");
    assert_eq!(
        wide.properties[&pg_model::sym("k129")].presence,
        Some(Presence::Optional)
    );

    for shards in [2, 4] {
        let sharded = discover_sharded(&g, shards, &cfg).unwrap();
        assert_eq!(
            content_hash_hex(&sharded.schema),
            content_hash_hex(&single.schema),
            "{shards} shards over a >128-key universe:\nsingle:\n{}\nsharded:\n{}",
            canonical_form(&single.schema),
            canonical_form(&sharded.schema)
        );
    }
}
