//! Merge-law and stream-equivalence suite for the bounded-memory
//! sketch engine (`pg_hive::sketch`).
//!
//! The streaming mode's whole correctness argument rests on four
//! algebraic facts, each pinned property-based here:
//!
//! * **Union-truncate laws** — [`DistinctSketch`] and [`ValueSample`]
//!   merges are commutative, associative, and idempotent: the kept
//!   bottom-`k` set is a pure function of the union of the inserted
//!   item sets, so shard order, batch boundaries, and replays cannot
//!   change an estimate.
//! * **Estimator contract** — exact below saturation; within the
//!   documented `O(1/√k)` relative error above it.
//! * **Accumulator merge law** — a [`TypeAccum`] (node or edge) merges
//!   to the same value whatever the operand order, reduction-tree shape,
//!   or mix of exact and sketched operands; any sketched operand makes
//!   the result the single-pass sketched fold (the bounded side wins).
//! * **Stream-mode equivalence** — sketched shard states fold through
//!   `pg_hive::merge_states` to the same canonical schema as a
//!   single-node sketched run, at any thread count; checkpoints stay
//!   bounded while exact-mode checkpoints grow; and a checkpoint can
//!   never be resumed across accumulator modes.

use pg_hive::{
    content_hash_hex, merge_states, AccumMode, DistinctSketch, HiveConfig, HiveSession, Kind,
    ModeMismatch, SessionCheckpoint, SketchParams, StreamConfig, TypeAccum, ValueSample,
};
use pg_model::{DataType, Edge, LabelSet, Node, NodeId, PropertyValue};
use pg_store::split_batches;
use pg_synth::{random_schema, synthesize, SchemaParams, SynthSpec};
use proptest::prelude::*;

fn distinct_from(k: usize, seed: u64, items: &[u64]) -> DistinctSketch {
    let mut s = DistinctSketch::new(k, seed);
    for &x in items {
        s.insert(x);
    }
    s
}

fn sample_from(k: usize, seed: u64, values: &[(u64, bool)]) -> ValueSample {
    let mut s = ValueSample::new(k, seed);
    for &(x, stringy) in values {
        let value = if stringy {
            PropertyValue::from(format!("v{x}"))
        } else {
            PropertyValue::from(x as i64)
        };
        s.observe(&"p".into(), &value);
    }
    s
}

/// Fold `instances` into one accumulator, exact or (with `params`)
/// sketched from the first instance on.
fn fold<K: Kind>(instances: &[K], params: Option<SketchParams>) -> TypeAccum<K> {
    let mut acc = TypeAccum::default();
    if let Some(params) = params {
        acc.ensure_sketched(params);
    }
    for instance in instances {
        acc.observe(instance);
    }
    acc
}

/// An accumulator's wire form with exact lists sorted — equality up to
/// the concatenation order of member and endpoint lists.
fn canonical<K: Kind>(mut acc: TypeAccum<K>) -> String {
    acc.sort_exact();
    serde_json::to_string(&acc).expect("accumulator serializes")
}

/// The merge law over one stream cut into three parts: every
/// exact/sketched assignment of the parts, every operand order, both
/// reduction-tree shapes.
fn check_accum_merge_law<K: Kind>(
    stream: &[K],
    cuts: (usize, usize),
    params: SketchParams,
) -> Result<(), TestCaseError> {
    let a = cuts.0.min(cuts.1).min(stream.len());
    let b = cuts.0.max(cuts.1).min(stream.len());
    let parts = [&stream[..a], &stream[a..b], &stream[b..]];
    for modes in 0..8u8 {
        let sketched = |i: usize| modes & (1 << i) != 0;
        let folded: Vec<TypeAccum<K>> = (0..3)
            .map(|i| fold(parts[i], sketched(i).then_some(params)))
            .collect();
        let expected = if modes == 0 {
            fold(stream, None)
        } else {
            // The single-pass sketched fold of the whole stream — except
            // that an exact operand no longer has property *values* to
            // sample, so the value samples are those of a single pass
            // over the sketched parts alone.
            let sampled: Vec<K> = (0..3)
                .filter(|&i| sketched(i))
                .flat_map(|i| parts[i].iter().cloned())
                .collect();
            let mut whole = fold(stream, Some(params));
            whole.ensure_sketched(params).samples = fold(&sampled, Some(params))
                .ensure_sketched(params)
                .samples
                .clone();
            whole
        };
        let expected = canonical(expected);
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let [x, y, z] = order.map(|i| &folded[i]);
            let mut left_deep = x.clone();
            left_deep.merge(y);
            left_deep.merge(z);
            let mut inner = y.clone();
            inner.merge(z);
            let mut right_deep = x.clone();
            right_deep.merge(&inner);
            for (shape, merged) in [("(x+y)+z", left_deep), ("x+(y+z)", right_deep)] {
                prop_assert_eq!(
                    &canonical(merged),
                    &expected,
                    "modes {:03b}, order {:?}, shape {}",
                    modes,
                    order,
                    shape
                );
            }
        }
    }
    Ok(())
}

/// One raw instance: id, endpoints, which of three keys it carries, and
/// whether their values are strings or ints.
type RawInstance = (u64, u64, u64, u8, bool);

fn with_props<T>(mut instance: T, raw: &RawInstance, set: fn(T, &str, PropertyValue) -> T) -> T {
    for (bit, key) in ["a", "b", "c"].into_iter().enumerate() {
        if raw.3 & (1 << bit) != 0 {
            let value = if raw.4 {
                PropertyValue::from(format!("v{}", raw.0 + bit as u64))
            } else {
                PropertyValue::from((raw.0 + bit as u64) as i64)
            };
            instance = set(instance, key, value);
        }
    }
    instance
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The accumulator merge law, node and edge kinds (see
    /// `check_accum_merge_law`). Sketch sizes are small enough that the
    /// KMV counters and value samples saturate within a part.
    #[test]
    fn accumulator_merge_is_order_shape_and_mode_insensitive(
        raw in prop::collection::vec((0u64..200, 0u64..12, 0u64..12, 0u8..8, any::<bool>()), 0..60),
        cuts in (0usize..60, 0usize..60),
        seed in any::<u64>(),
    ) {
        let params = SketchParams { distinct_k: 8, sample_k: 4, seed };
        let nodes: Vec<Node> = raw
            .iter()
            .map(|r| with_props(Node::new(r.0, LabelSet::single("T")), r, |n, k, v| n.with_prop(k, v)))
            .collect();
        check_accum_merge_law(&nodes, cuts, params)?;
        let edges: Vec<Edge> = raw
            .iter()
            .map(|r| {
                let edge = Edge::new(r.0, NodeId(r.1), NodeId(r.2), LabelSet::single("E"));
                with_props(edge, r, |e, k, v| e.with_prop(k, v))
            })
            .collect();
        check_accum_merge_law(&edges, cuts, params)?;
    }

    /// merge(A, B) == merge(B, A), bit for bit.
    #[test]
    fn distinct_merge_is_commutative(
        a in prop::collection::vec(any::<u64>(), 0..200),
        b in prop::collection::vec(any::<u64>(), 0..200),
        k in prop_oneof![Just(16usize), Just(32), Just(64)],
        seed in any::<u64>(),
    ) {
        let (sa, sb) = (distinct_from(k, seed, &a), distinct_from(k, seed, &b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// merge(merge(A, B), C) == merge(A, merge(B, C)), and both equal
    /// the sketch of the concatenated stream.
    #[test]
    fn distinct_merge_is_associative_and_stream_equal(
        a in prop::collection::vec(any::<u64>(), 0..150),
        b in prop::collection::vec(any::<u64>(), 0..150),
        c in prop::collection::vec(any::<u64>(), 0..150),
        k in prop_oneof![Just(16usize), Just(64)],
        seed in any::<u64>(),
    ) {
        let (sa, sb, sc) = (
            distinct_from(k, seed, &a),
            distinct_from(k, seed, &b),
            distinct_from(k, seed, &c),
        );
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut right_inner = sb.clone();
        right_inner.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_inner);
        prop_assert_eq!(&left, &right);

        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &distinct_from(k, seed, &all));
    }

    /// merge(A, A) == A: replaying a shard is a no-op.
    #[test]
    fn distinct_merge_is_idempotent(
        a in prop::collection::vec(any::<u64>(), 0..300),
        seed in any::<u64>(),
    ) {
        let s = distinct_from(32, seed, &a);
        let mut doubled = s.clone();
        doubled.merge(&s);
        prop_assert_eq!(doubled, s);
    }

    /// Below k distinct items the count is exact; above, within the
    /// documented relative error (3σ margin so the test never flakes).
    #[test]
    fn distinct_estimate_is_exact_then_bounded(
        n in 1usize..4000,
        seed in any::<u64>(),
    ) {
        let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(seed)).collect();
        let exact = items.iter().collect::<std::collections::HashSet<_>>().len() as f64;
        let k = 256;
        let s = distinct_from(k, seed, &items);
        let est = s.estimate() as f64;
        if !s.is_saturated() {
            prop_assert_eq!(est, exact, "sub-saturation estimates are exact");
        } else {
            let rel = (est - exact).abs() / exact;
            prop_assert!(
                rel <= 3.0 / (k as f64).sqrt(),
                "relative error {rel:.4} beyond 3/√k for n={n}"
            );
        }
    }

    /// ValueSample shares the union-truncate laws, and its lattice join
    /// is therefore order-insensitive too.
    #[test]
    fn value_sample_merge_laws(
        a in prop::collection::vec((any::<u64>(), any::<bool>()), 0..150),
        b in prop::collection::vec((any::<u64>(), any::<bool>()), 0..150),
        seed in any::<u64>(),
    ) {
        let (sa, sb) = (sample_from(16, seed, &a), sample_from(16, seed, &b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        let mut doubled = ab.clone();
        doubled.merge(&ab);
        prop_assert_eq!(&doubled, &ab);

        let all: Vec<(u64, bool)> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(&ab, &sample_from(16, seed, &all));
        prop_assert_eq!(ab.join(), sample_from(16, seed, &all).join());
    }
}

/// A small clean synthetic workload for the end-to-end stream checks.
fn workload_graph(seed: u64) -> pg_model::PropertyGraph {
    let params = SchemaParams {
        node_types: 4,
        edge_types: 3,
        ..Default::default()
    };
    let spec = SynthSpec::new(random_schema(&params, seed)).sized_for(4_000);
    synthesize(&spec, seed).graph
}

fn workload(seed: u64) -> (Vec<pg_store::NodeRecord>, Vec<pg_store::EdgeRecord>) {
    pg_store::load(&workload_graph(seed))
}

fn stream_config(seed: u64, threads: usize) -> HiveConfig {
    HiveConfig {
        threads,
        stream: Some(StreamConfig::default()),
        ..HiveConfig::default()
    }
    .with_seed(seed)
}

/// Sketched discovery does not read the inert `threads` field, which
/// callers still set.
#[test]
fn stream_discovery_is_thread_count_invariant() {
    for seed in [1u64, 8] {
        let (nodes, edges) = workload(seed);
        let hash_at = |threads: usize| {
            let mut session = HiveSession::new(stream_config(seed, threads));
            session.process_batch(&nodes, &edges);
            content_hash_hex(&session.finish().schema)
        };
        assert_eq!(hash_at(1), hash_at(4), "seed {seed}");
    }
}

/// Sketched shard states fold through `pg_hive::merge_states` to the
/// same canonical schema as a single sketched pass, in any shard order
/// — the distributed form of the union-truncate laws.
#[test]
fn sketched_shard_states_merge_like_a_single_pass() {
    for seed in [3u64, 12] {
        let graph = workload_graph(seed);
        let (nodes, edges) = pg_store::load(&graph);
        let config = stream_config(seed, 1);

        let mut single = HiveSession::new(config.clone());
        single.process_batch(&nodes, &edges);
        let single_hash = content_hash_hex(&single.finish().schema);

        for shards in [2usize, 4] {
            let mut states: Vec<_> = split_batches(&graph, shards, seed)
                .iter()
                .map(|b| {
                    let mut s = HiveSession::new(config.clone());
                    s.process_batch(&b.nodes, &b.edges);
                    s.finish().state
                })
                .collect();
            // Shard order must not matter.
            states.reverse();
            let merged = merge_states(&states, &config).expect("sketched states merge");
            assert_eq!(
                content_hash_hex(&merged.schema),
                single_hash,
                "seed {seed}, {shards} shards"
            );
        }
    }
}

/// The streaming claim in miniature: a sketched checkpoint stops
/// growing once its sketches saturate, while the exact checkpoint keeps
/// absorbing every new member id and value.
#[test]
fn sketched_checkpoints_stay_bounded_while_exact_ones_grow() {
    let ckpt_bytes = |stream: Option<StreamConfig>, batches: u64| -> usize {
        let config = HiveConfig {
            stream,
            ..HiveConfig::default()
        }
        .with_seed(9);
        let mut session = HiveSession::new(config);
        for b in 0..batches {
            // Every batch brings entirely fresh ids and fresh values.
            let nodes: Vec<Node> = (0..500u64)
                .map(|i| {
                    let id = b * 10_000 + i;
                    Node::new(id, LabelSet::single("T"))
                        .with_prop("x", id as i64)
                        .with_prop("name", format!("n{id}"))
                })
                .collect();
            session.process_batch(&nodes, &[]);
        }
        serde_json::to_string(&session.checkpoint())
            .expect("checkpoint serializes")
            .len()
    };

    let sketch_small = ckpt_bytes(Some(StreamConfig::default()), 4);
    let sketch_large = ckpt_bytes(Some(StreamConfig::default()), 40);
    let exact_small = ckpt_bytes(None, 4);
    let exact_large = ckpt_bytes(None, 40);

    assert!(
        (sketch_large as f64) < (sketch_small as f64) * 1.10,
        "sketched checkpoint grew with stream length: {sketch_small} -> {sketch_large} bytes"
    );
    assert!(
        (exact_large as f64) > (exact_small as f64) * 2.0,
        "exact checkpoint unexpectedly bounded: {exact_small} -> {exact_large} bytes \
         (the contrast baseline for this test is gone)"
    );
}

/// Cross-mode resume is a typed error in both directions, and the mode
/// marker survives a JSON round-trip of the checkpoint envelope.
#[test]
fn cross_mode_resume_is_rejected() {
    let (nodes, edges) = workload(5);
    let exact_config = HiveConfig::default().with_seed(5);
    let sketch_config = stream_config(5, 1);

    let mut exact = HiveSession::new(exact_config.clone());
    exact.process_batch(&nodes, &edges);
    let exact_ckpt = exact.checkpoint();
    assert_eq!(exact_ckpt.accum_mode(), AccumMode::Exact);

    let mut sketched = HiveSession::new(sketch_config.clone());
    sketched.process_batch(&nodes, &edges);
    let sketch_ckpt = sketched.checkpoint();
    assert_eq!(sketch_ckpt.accum_mode(), AccumMode::Sketch);

    // Round-trip through JSON: the mode marker must survive.
    let json = serde_json::to_string(&sketch_ckpt).unwrap();
    let revived: SessionCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(revived.accum_mode(), AccumMode::Sketch);

    // Exact checkpoint into a sketched session: refused.
    let err = match HiveSession::restore(sketch_config.clone(), exact_ckpt) {
        Err(e) => e,
        Ok(_) => panic!("cross-mode restore (exact -> sketch) must fail"),
    };
    assert_eq!(
        err,
        ModeMismatch {
            checkpoint: AccumMode::Exact,
            session: AccumMode::Sketch,
        }
    );

    // Sketched checkpoint into an exact session: refused.
    let err = match HiveSession::restore(exact_config, revived) {
        Err(e) => e,
        Ok(_) => panic!("cross-mode restore (sketch -> exact) must fail"),
    };
    assert_eq!(err.checkpoint, AccumMode::Sketch);
    assert_eq!(err.session, AccumMode::Exact);

    // Same mode: restored and able to continue.
    let restored = HiveSession::restore(sketch_config, sketch_ckpt);
    assert!(restored.is_ok(), "same-mode restore must succeed");
    let mut restored = restored.unwrap();
    restored.process_batch(&nodes, &edges);
}

/// Datatype inference through the reservoir agrees with exact
/// inference on homogeneous data, and the joined type is stable under
/// re-observation (saturated reservoirs are fixed points).
#[test]
fn reservoir_datatype_inference_matches_exact_on_clean_data() {
    let mut sample = ValueSample::new(16, 77);
    for i in 0..10_000u64 {
        sample.observe(&"x".into(), &PropertyValue::from(i as i64));
    }
    assert_eq!(sample.join(), Some(DataType::Int));
    let before = sample.clone();
    for i in 0..10_000u64 {
        sample.observe(&"x".into(), &PropertyValue::from(i as i64));
    }
    assert_eq!(sample, before, "re-observation is a no-op");
}
