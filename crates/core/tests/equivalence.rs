//! Cross-crate equivalence suite for the parallel discovery hot path.
//!
//! Two contracts are exercised over proptest-generated graphs (drawn
//! from the `pg-datasets` synthetic twins):
//!
//! 1. **Thread-count invariance** — `threads = 1` (exact sequential)
//!    and `threads = N` produce *bit-identical* `SchemaGraph`s and
//!    identical instance assignments. This is the determinism
//!    guarantee documented in DESIGN.md §"Parallel execution": every
//!    parallel stage shards by input position into a fixed number of
//!    chunks and reduces in chunk order, so the thread count can never
//!    leak into the output.
//!
//! 2. **Batched vs one-shot** (§4.6 monotone-merge) — feeding the same
//!    records through a `HiveSession` in k random batches yields a
//!    schema *equivalent* to the one-shot `discover_graph`: the same
//!    node-type label sets, the same number of edge types, full
//!    assignment coverage, and a monotone generalization chain across
//!    the intermediate schemas. (Batching is not expected to be
//!    bit-identical — cluster ids depend on arrival order — so this
//!    asserts the paper's equivalence relation, not `==`.)

use pg_hive::{HiveSession, LshMethod, PgHive};
use proptest::prelude::*;

mod common;
use common::{
    case_graph, quick_config, sorted_edge_assignment, sorted_labels, sorted_node_assignment,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Contract 1: the schema is bit-for-bit independent of the thread
    /// count, across datasets, seeds, LSH methods, and noise levels.
    #[test]
    fn schema_is_thread_count_invariant(
        dataset in prop::sample::select(vec!["POLE", "MB6", "ICIJ"]),
        seed in 0u64..1000,
        threads in 2usize..8,
        minhash in prop::bool::ANY,
        noisy in prop::bool::ANY,
    ) {
        let (noise, avail) = if noisy { (0.3, 0.7) } else { (0.0, 1.0) };
        let graph = case_graph(dataset, seed, noise, avail);
        let method = if minhash { LshMethod::MinHash } else { LshMethod::Elsh };

        let seq = PgHive::new(quick_config(method, seed, 1)).discover_graph(&graph);
        let par = PgHive::new(quick_config(method, seed, threads)).discover_graph(&graph);

        prop_assert_eq!(&seq.schema, &par.schema);
        prop_assert_eq!(sorted_node_assignment(&seq), sorted_node_assignment(&par));
        prop_assert_eq!(sorted_edge_assignment(&seq), sorted_edge_assignment(&par));
    }

    /// Contract 2: one-shot discovery and a session fed the same
    /// records in k random batches produce equivalent schemas, and the
    /// per-batch schema chain is monotone (§4.6).
    #[test]
    fn batched_session_is_equivalent_to_one_shot(
        dataset in prop::sample::select(vec!["POLE", "MB6", "ICIJ"]),
        seed in 0u64..1000,
        k in 2usize..6,
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let graph = case_graph(dataset, seed, 0.0, 1.0);
        let cfg = quick_config(LshMethod::Elsh, seed, threads);

        let single = PgHive::new(cfg.clone()).discover_graph(&graph);

        let batches = pg_store::split_batches(&graph, k, seed ^ 0xba7c4);
        let mut session = HiveSession::new(cfg);
        let mut prev = session.schema().clone();
        for b in &batches {
            session.process_graph_batch(b);
            let cur = session.schema().clone();
            prop_assert!(
                prev.is_generalized_by(&cur),
                "batch broke the monotone chain"
            );
            prev = cur;
        }
        let inc = session.finish();

        prop_assert_eq!(sorted_labels(&inc.schema), sorted_labels(&single.schema));
        prop_assert_eq!(inc.schema.edge_types.len(), single.schema.edge_types.len());
        // Every record still gets a type, no matter how it arrived.
        prop_assert_eq!(inc.node_assignment().len(), graph.node_count());
        prop_assert_eq!(inc.edge_assignment().len(), graph.edge_count());
    }
}

/// Deterministic (non-proptest) sweep on the Figure 1 running example:
/// one sequential run pins the expectation, every other thread count
/// must reproduce it exactly — including the serialized JSON text.
#[test]
fn figure1_identical_across_thread_counts() {
    let graph = pg_hive::fixtures::figure1();
    let reference = PgHive::new(quick_config(LshMethod::Elsh, 42, 1)).discover_graph(&graph);
    let reference_json = pg_hive::serialize::to_json(&reference.schema);
    for threads in [0usize, 2, 4, 8] {
        let run = PgHive::new(quick_config(LshMethod::Elsh, 42, threads)).discover_graph(&graph);
        assert_eq!(reference.schema, run.schema, "threads={threads}");
        assert_eq!(
            sorted_node_assignment(&reference),
            sorted_node_assignment(&run),
            "threads={threads}"
        );
        assert_eq!(
            sorted_edge_assignment(&reference),
            sorted_edge_assignment(&run),
            "threads={threads}"
        );
        assert_eq!(
            reference_json,
            pg_hive::serialize::to_json(&run.schema),
            "threads={threads}"
        );
    }
}

/// Incremental sessions are also thread-count invariant batch by batch:
/// the same batch sequence at threads=1 and threads=4 yields identical
/// intermediate and final schemas.
#[test]
fn incremental_schemas_are_thread_count_invariant() {
    let graph = case_graph("POLE", 7, 0.2, 0.8);
    let batches = pg_store::split_batches(&graph, 4, 11);

    let mut seq = HiveSession::new(quick_config(LshMethod::Elsh, 7, 1));
    let mut par = HiveSession::new(quick_config(LshMethod::Elsh, 7, 4));
    for (i, b) in batches.iter().enumerate() {
        seq.process_graph_batch(b);
        par.process_graph_batch(b);
        assert_eq!(seq.schema(), par.schema(), "diverged at batch {i}");
    }
    let (seq, par) = (seq.finish(), par.finish());
    assert_eq!(seq.schema, par.schema);
    assert_eq!(sorted_node_assignment(&seq), sorted_node_assignment(&par));
}
