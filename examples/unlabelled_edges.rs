//! How much of an unlabelled edge's type its endpoints carry: for each
//! paper twin at 0 % labels, the edge F1\* discovery scores today, and
//! what it would score if each discovered edge type were split by its
//! edges' (source type, target type) pair — once by the discovered node
//! types, once by the truth node types. Each cell is edge F1\* with the
//! number of edge types in brackets.
//!
//! ```sh
//! cargo run --release --example unlabelled_edges
//! ```

use pg_eval::runner::{eval_hive_config, prepare_graph, CellSpec};
use pg_eval::{majority_f1, F1Score};
use pg_hive::{LshMethod, PgHive};
use pg_model::{EdgeId, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Split each edge cluster by the types of its edges' endpoints.
fn split_by_endpoints<T: Hash + Eq + Ord + Clone>(
    clusters: &[Vec<EdgeId>],
    endpoints: &HashMap<EdgeId, (NodeId, NodeId)>,
    node_type: &HashMap<NodeId, T>,
) -> Vec<Vec<EdgeId>> {
    let mut out = Vec::new();
    for members in clusters {
        let mut parts: BTreeMap<(Option<T>, Option<T>), Vec<EdgeId>> = BTreeMap::new();
        for id in members {
            let (src, tgt) = endpoints[id];
            let key = (node_type.get(&src).cloned(), node_type.get(&tgt).cloned());
            parts.entry(key).or_default().push(*id);
        }
        out.extend(parts.into_values());
    }
    out
}

fn cell(score: F1Score, types: usize) -> String {
    format!("{:.3} ({types})", score.macro_f1)
}

fn main() {
    println!("| twin | truth | today | split, discovered endpoints | split, truth endpoints |");
    println!("|---|---:|---|---|---|");
    for twin in [
        "POLE", "MB6", "HET.IO", "FIB25", "ICIJ", "CORD19", "LDBC", "IYP",
    ] {
        let spec = CellSpec {
            label_availability: 0.0,
            ..CellSpec::new(twin)
        };
        let (graph, truth) = prepare_graph(&spec);
        let result =
            PgHive::new(eval_hive_config(LshMethod::Elsh, spec.seed)).discover_graph(&graph);
        let endpoints: HashMap<EdgeId, (NodeId, NodeId)> =
            graph.edges().map(|e| (e.id, (e.src, e.tgt))).collect();
        let today: Vec<Vec<EdgeId>> = result.edge_members().into_values().collect();
        let discovered = split_by_endpoints(&today, &endpoints, &result.node_assignment());
        let by_truth = split_by_endpoints(&today, &endpoints, &truth.node_type);
        let score = |clusters: &[Vec<EdgeId>]| {
            cell(majority_f1(clusters, &truth.edge_type), clusters.len())
        };
        println!(
            "| {twin} | {} | {} | {} | {} |",
            truth.edge_type_count(),
            score(&today),
            score(&discovered),
            score(&by_truth)
        );
    }
}
