//! Extension experiment (paper §6, future work item (b)): detect types
//! that share identical type patterns but lack distinguishing labels,
//! using graph-context refinement of ABSTRACT types.
//!
//! Workload: a synthetic "sensor field" where two device kinds have
//! byte-identical property structure and no labels; they differ only in
//! how they connect (emit `MEASURES` vs receive `CONTROLS`).

use pg_eval::args::EvalArgs;
use pg_eval::majority_f1;
use pg_eval::report::render_table;
use pg_eval::runner::eval_hive_config;
use pg_hive::refine::{refine_abstract_types, RefineConfig};
use pg_hive::{LshMethod, PgHive};
use pg_model::{Edge, LabelSet, Node, NodeId, PropertyGraph};
use std::collections::HashMap;

fn sensor_field(n: u64, seed: u64) -> (PropertyGraph, HashMap<NodeId, String>) {
    let mut g = PropertyGraph::new();
    let mut truth = HashMap::new();
    let _ = seed;
    for i in 0..n {
        // Emitters and receivers: identical structure, no labels.
        g.add_node(
            Node::new(i, LabelSet::empty())
                .with_prop("serial", i as i64)
                .with_prop("firmware", "v2"),
        )
        .unwrap();
        truth.insert(NodeId(i), "Emitter".to_owned());
        g.add_node(
            Node::new(100_000 + i, LabelSet::empty())
                .with_prop("serial", i as i64)
                .with_prop("firmware", "v2"),
        )
        .unwrap();
        truth.insert(NodeId(100_000 + i), "Receiver".to_owned());
        g.add_node(Node::new(200_000 + i, LabelSet::single("Hub")).with_prop("name", "h"))
            .unwrap();
        truth.insert(NodeId(200_000 + i), "Hub".to_owned());
    }
    for i in 0..n {
        g.add_edge(Edge::new(
            1_000_000 + i,
            NodeId(i),
            NodeId(200_000 + i),
            LabelSet::single("MEASURES"),
        ))
        .unwrap();
        g.add_edge(Edge::new(
            2_000_000 + i,
            NodeId(200_000 + i),
            NodeId(100_000 + i),
            LabelSet::single("CONTROLS"),
        ))
        .unwrap();
    }
    (g, truth)
}

fn main() {
    let args = EvalArgs::parse();
    let n = (500.0 * args.scale) as u64;
    let (graph, truth) = sensor_field(n.max(10), args.seed);

    let mut result =
        PgHive::new(eval_hive_config(LshMethod::Elsh, args.seed)).discover_graph(&graph);
    let clusters: Vec<Vec<NodeId>> = result.node_members().into_values().collect();
    let before = majority_f1(&clusters, &truth);

    let report = refine_abstract_types(&mut result.state, &graph, RefineConfig::default());
    let clusters: Vec<Vec<NodeId>> = result
        .state
        .node_accums
        .values()
        .map(|a| a.members().to_vec())
        .collect();
    let after = majority_f1(&clusters, &truth);

    println!(
        "Extension (context refinement) — sensor field with {} unlabeled twins per kind:\n",
        n
    );
    let header: Vec<String> = ["", "node F1*", "node types"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let rows = vec![
        vec![
            "structure only (paper)".to_string(),
            format!("{:.3}", before.macro_f1),
            before.clusters.to_string(),
        ],
        vec![
            "+ context refinement".to_string(),
            format!("{:.3}", after.macro_f1),
            after.clusters.to_string(),
        ],
    ];
    println!("{}", render_table(&header, &rows));
    println!(
        "\nrefinement examined {} abstract types and performed {} split(s)",
        report.examined,
        report.splits.len()
    );
}
