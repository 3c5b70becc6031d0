//! Schema discovery on a social network: generate the LDBC SNB twin,
//! discover its schema, and inspect constraints, data types, and
//! cardinalities — the "schema-aware property graph management" the
//! paper's introduction motivates.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use pg_datasets::{generate, spec_by_name};
use pg_hive::{serialize, HiveConfig, PgHive, SchemaMode};
use pg_model::Presence;

fn main() {
    let spec = spec_by_name("LDBC").expect("catalog dataset").scaled(0.25);
    let (graph, gt) = generate(&spec, 1);
    println!(
        "Generated LDBC twin: {} nodes, {} edges, {} ground-truth node types",
        graph.node_count(),
        graph.edge_count(),
        gt.node_type_count()
    );

    let started = std::time::Instant::now();
    let result = PgHive::new(HiveConfig::default()).discover_graph(&graph);
    println!(
        "\nDiscovered {} node types and {} edge types in {:.3}s",
        result.schema.node_types.len(),
        result.schema.edge_types.len(),
        started.elapsed().as_secs_f64()
    );

    // Constraints: which Person properties are mandatory?
    if let Some(person) = result
        .schema
        .node_types
        .iter()
        .find(|t| t.labels.contains("Person"))
    {
        println!("\nPerson properties:");
        for (key, spec) in &person.properties {
            println!(
                "  {key:<14} {:<9} {}",
                spec.datatype.map(|d| d.to_string()).unwrap_or_default(),
                match spec.presence {
                    Some(Presence::Mandatory) => "MANDATORY",
                    Some(Presence::Optional) => "OPTIONAL",
                    None => "?",
                }
            );
        }
    }

    // Cardinalities: a creator edge is N:1, KNOWS is M:N.
    println!("\nEdge cardinalities:");
    for t in &result.schema.edge_types {
        if let Some(c) = t.cardinality {
            println!(
                "  {:<22} ({} -> {}): {}",
                t.labels.to_string(),
                t.src_labels,
                t.tgt_labels,
                c.class()
            );
        }
    }

    // Export for downstream tools.
    let strict = serialize::to_pg_schema(&result.schema, SchemaMode::Strict);
    println!(
        "\nSTRICT PG-Schema declaration: {} lines (showing head)",
        strict.lines().count()
    );
    for line in strict.lines().take(12) {
        println!("  {line}");
    }
    let json = serialize::to_json(&result.schema);
    println!("\nJSON export: {} bytes", json.len());
}
