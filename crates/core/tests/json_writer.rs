//! The sink-driven JSON writer on the types the workspace persists and
//! serves: each must write exactly the text the tree writer it replaced
//! (`vendor/serde_json/tests/oracle`) writes for its value tree, compact
//! and pretty; and encoding a checkpoint of the benchmark's
//! `incremental_diverse` size must not allocate more than a small
//! multiple of the bytes it produces.

use pg_hive::checkpoint::encode;
use pg_hive::{HiveConfig, HiveSession, SessionCheckpoint, ShardState, StreamConfig};
use pg_model::PropertyGraph;
use pg_store::jsonl::Element;
use serde::Serialize;
use std::sync::OnceLock;

mod mutation;
use mutation::metered;

#[path = "../../../vendor/serde_json/tests/oracle/mod.rs"]
mod oracle;

/// The `incremental_diverse` corpus shape of the benchmark at
/// `elements` records.
fn diverse_graph(elements: usize) -> PropertyGraph {
    use pg_synth::{random_schema, synthesize, NoiseProfile, SchemaParams, SynthSpec};
    let schema = SchemaParams {
        node_types: 64,
        edge_types: 48,
        max_extra_props: 12,
        multi_label_overlap: 0.3,
        optional_rate: 0.7,
    };
    let noise = NoiseProfile {
        unlabeled_fraction: 0.3,
        missing_optional_rate: 0.5,
        label_noise_rate: 0.2,
        missing_mandatory_rate: 0.0,
    };
    let spec = SynthSpec::new(random_schema(&schema, 42))
        .sized_for(elements)
        .with_noise(noise);
    synthesize(&spec, 42).graph
}

/// A session after `batches` batches of `graph`.
fn session(graph: &PropertyGraph, batches: usize, config: HiveConfig) -> HiveSession {
    let mut session = HiveSession::new(config);
    for batch in pg_store::split_batches(graph, batches, 42) {
        session.process_graph_batch(&batch);
    }
    session
}

/// An exact session over the full-size corpus, shared by the tests.
fn diverse_session() -> &'static HiveSession {
    static SESSION: OnceLock<HiveSession> = OnceLock::new();
    SESSION.get_or_init(|| session(&diverse_graph(20_000), 4, HiveConfig::default()))
}

fn assert_same<T: Serialize + ?Sized>(what: &str, x: &T) {
    let tree = x.to_value();
    let compact = serde_json::to_string(x).ok();
    assert!(
        compact == oracle::compact(&tree),
        "{what}: compact text differs"
    );
    let pretty = serde_json::to_string_pretty(x).ok();
    assert!(
        pretty == oracle::pretty(&tree),
        "{what}: pretty text differs"
    );
}

#[test]
fn persisted_types_write_as_the_tree_writer_wrote_them() {
    let exact = diverse_session();
    assert_same("SessionCheckpoint (exact)", &exact.checkpoint());
    assert_same("ShardState (exact)", &ShardState::from_state(exact.state()));
    assert_same("SchemaGraph", exact.schema());

    // Sketched accumulators write their edge sketches' endpoint counters
    // inline between `members` and `samples`.
    let config = HiveConfig {
        stream: Some(StreamConfig::default()),
        ..HiveConfig::default()
    };
    let stream = session(&diverse_graph(3_000), 4, config);
    assert_same("SessionCheckpoint (stream)", &stream.checkpoint());
    assert_same(
        "ShardState (stream)",
        &ShardState::from_state(stream.state()),
    );

    // `Element` is internally tagged: `kind` first, then the fields of
    // the record it wraps.
    let graph = diverse_graph(500);
    let (nodes, edges) = pg_store::load(&graph);
    let mut elements: Vec<Element> = graph.nodes().map(|n| Element::Node(n.clone())).collect();
    elements.extend(graph.edges().map(|e| Element::Edge(e.clone())));
    elements.extend(edges.into_iter().map(Element::ResolvedEdge));
    assert!(nodes.len() > 100 && elements.len() > 2 * nodes.len());
    for el in &elements {
        assert_same("Element", el);
    }
    assert_same("[Element]", &elements);
}

/// The writer's buffers and the one exact-size envelope cost about two
/// bytes per output byte; a tree in between cost tens.
#[test]
fn encoding_a_megabyte_checkpoint_allocates_at_most_three_bytes_per_byte() {
    let ckpt: SessionCheckpoint = diverse_session().checkpoint();
    let (bytes, requested, _) = metered(|| encode(&ckpt).unwrap());
    assert!(bytes.len() >= 512 << 10, "{} bytes", bytes.len());
    let ratio = requested as f64 / bytes.len() as f64;
    eprintln!(
        "encode: {} bytes out, {requested} bytes requested, {ratio:.2} per byte",
        bytes.len()
    );
    assert!(ratio <= 3.0, "{ratio:.2} allocation bytes per output byte");
}
