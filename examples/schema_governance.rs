//! Schema governance: the discover → validate → evolve loop a data
//! platform team runs.
//!
//! 1. Discover a schema from a trusted snapshot.
//! 2. Gate incoming data: validate it STRICT, reject violators.
//! 3. Accept a legitimate evolution (a new property), re-discover
//!    incrementally, and diff the two schema versions.
//! 4. Checkpoint the session so the service can restart without
//!    reprocessing.
//!
//! ```sh
//! cargo run --release --example schema_governance
//! ```

use pg_datasets::{generate, spec_by_name};
use pg_hive::{diff, validate, HiveConfig, HiveSession, SchemaMode, SessionCheckpoint};
use pg_model::{LabelSet, Node, PropertyGraph, PropertyValue};
use pg_store::load;

fn main() {
    // 1. Trusted snapshot → schema v1.
    let spec = spec_by_name("POLE").expect("catalog dataset").scaled(0.2);
    let (snapshot, _) = generate(&spec, 21);
    let config = HiveConfig::default();
    let mut session = HiveSession::new(config.clone());
    let (nodes, edges) = load(&snapshot);
    session.process_batch(&nodes, &edges);
    session.post_process();
    let schema_v1 = session.schema().clone();
    println!(
        "schema v1: {} node types, {} edge types",
        schema_v1.node_types.len(),
        schema_v1.edge_types.len()
    );

    // 2. Gate a bad payload: a Person with a string where the schema
    //    learned integers, and an unknown entity kind.
    let mut bad = PropertyGraph::new();
    bad.add_node(
        Node::new(1, LabelSet::single("Vehicle"))
            .with_prop("make", "X")
            .with_prop("model", "Y")
            .with_prop("reg", "Z")
            .with_prop("year", PropertyValue::Str("twenty-twenty".into())),
    )
    .unwrap();
    bad.add_node(Node::new(2, LabelSet::single("Drone")).with_prop("rotor_count", 4i64))
        .unwrap();
    let report = validate(&bad, &schema_v1, SchemaMode::Strict);
    println!(
        "\ngatekeeper: {} violations in incoming payload:",
        report.violations.len()
    );
    for v in &report.violations {
        println!("  {v:?}");
    }
    assert!(!report.is_valid());

    // 3. Legitimate evolution: Crimes now carry a `severity` score.
    let mut evolution = PropertyGraph::new();
    for i in 0..20u64 {
        evolution
            .add_node(
                Node::new(10_000 + i, LabelSet::single("Crime"))
                    .with_prop("date", pg_model::Date::new(2026, 7, 1).unwrap())
                    .with_prop("type", "cyber")
                    .with_prop("severity", (i % 5) as i64),
            )
            .unwrap();
    }
    let (ev_nodes, ev_edges) = load(&evolution);
    session.process_batch(&ev_nodes, &ev_edges);
    session.post_process();
    let schema_v2 = session.schema().clone();

    let d = diff(&schema_v1, &schema_v2);
    println!("\nschema v1 → v2 diff:\n{d}");
    assert!(d.is_pure_extension(), "evolution must be monotone");

    // 4. Checkpoint for restarts.
    let checkpoint = session.checkpoint();
    let json = serde_json::to_string(&checkpoint).unwrap();
    println!("checkpoint: {} bytes of JSON", json.len());
    let restored: SessionCheckpoint = serde_json::from_str(&json).unwrap();
    let resumed = HiveSession::restore(config, restored).expect("same accumulator mode");
    println!(
        "restored session: {} types after {} batches",
        resumed.schema().node_types.len() + resumed.schema().edge_types.len(),
        resumed.batches_processed()
    );
}
