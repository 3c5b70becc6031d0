//! One evaluation cell: dataset × noise × label availability × method.

use crate::f1::{majority_f1, F1Score};
use pg_baselines::{GmmSchema, SchemI};
use pg_datasets::{generate, inject_noise, spec_by_name, NoiseConfig};
use pg_embed::Word2VecConfig;
use pg_hive::{EmbeddingKind, HiveConfig, HiveSession, LshMethod, PgHive};
use pg_model::{EdgeId, NodeId, PropertyGraph};
use std::collections::HashMap;
use std::time::Instant;

/// The four compared methods (§5, "Baselines").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// PG-HIVE with Euclidean LSH.
    HiveElsh,
    /// PG-HIVE with MinHash LSH.
    HiveMinHash,
    /// GMMSchema (node types only, needs full labels).
    Gmm,
    /// SchemI (needs full labels).
    SchemI,
}

impl Method {
    /// All methods in presentation order.
    pub fn all() -> [Method; 4] {
        [
            Method::HiveElsh,
            Method::HiveMinHash,
            Method::Gmm,
            Method::SchemI,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::HiveElsh => "PG-HIVE-ELSH",
            Method::HiveMinHash => "PG-HIVE-MinHash",
            Method::Gmm => "GMMSchema",
            Method::SchemI => "SchemI",
        }
    }
}

/// One cell of the evaluation grid.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Dataset name (Table 2 row).
    pub dataset: String,
    /// Property-removal probability (0.0–0.4).
    pub noise: f64,
    /// Label availability (1.0, 0.5, 0.0).
    pub label_availability: f64,
    /// Method under test.
    pub method: Method,
    /// Seed for generation, noise, and the method.
    pub seed: u64,
    /// Dataset scale multiplier.
    pub scale: f64,
}

impl CellSpec {
    /// A default cell: clean data, full labels, ELSH.
    pub fn new(dataset: &str) -> CellSpec {
        CellSpec {
            dataset: dataset.to_owned(),
            noise: 0.0,
            label_availability: 1.0,
            method: Method::HiveElsh,
            seed: 42,
            scale: 1.0,
        }
    }
}

/// The measured outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Node-type F1\*; `None` when the method refused to run.
    pub node_f1: Option<F1Score>,
    /// Edge-type F1\*; `None` when the method does not discover edge
    /// types or refused to run.
    pub edge_f1: Option<F1Score>,
    /// Wall-clock seconds of the discovery itself (excludes generation).
    pub seconds: f64,
    /// Clusters discovered (nodes).
    pub node_clusters: usize,
}

/// The Word2Vec settings used throughout the evaluation: small and fast,
/// adequate because label vocabularies have tens-to-hundreds of tokens.
pub fn eval_embedding() -> EmbeddingKind {
    EmbeddingKind::Word2Vec(Word2VecConfig {
        dim: 8,
        epochs: 4,
        ..Default::default()
    })
}

/// The PG-HIVE configuration used by the evaluation for a given LSH
/// family.
pub fn eval_hive_config(method: LshMethod, seed: u64) -> HiveConfig {
    HiveConfig {
        method,
        embedding: eval_embedding(),
        post_processing: false, // type discovery only, like Figure 5's timing
        ..Default::default()
    }
    .with_seed(seed)
}

/// Prepare the noisy graph for a cell (shared by run_cell and the
/// benchmarks).
pub fn prepare_graph(spec: &CellSpec) -> (PropertyGraph, pg_datasets::GroundTruth) {
    let ds = spec_by_name(&spec.dataset)
        .unwrap_or_else(|| panic!("unknown dataset {:?}", spec.dataset))
        .scaled(spec.scale);
    let (mut graph, gt) = generate(&ds, spec.seed);
    inject_noise(
        &mut graph,
        NoiseConfig {
            property_removal: spec.noise,
            label_availability: spec.label_availability,
            seed: spec.seed ^ 0xabcdef,
        },
    );
    (graph, gt)
}

/// Run one cell end to end.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    run_cell_batched(spec, 1)
}

/// [`run_cell`] with PG-HIVE reading the graph as `batches` random
/// batches through one incremental session (1 = the whole graph in one
/// pass). The baselines have no incremental mode and see the graph whole.
pub fn run_cell_batched(spec: &CellSpec, batches: usize) -> CellResult {
    let (graph, gt) = prepare_graph(spec);
    run_method_on(spec.method, &graph, &gt, spec.seed, batches)
}

/// Run a method on an already-prepared graph, PG-HIVE reading it as
/// `batches` random batches (see [`run_cell_batched`]).
pub fn run_method_on(
    method: Method,
    graph: &PropertyGraph,
    gt: &pg_datasets::GroundTruth,
    seed: u64,
    batches: usize,
) -> CellResult {
    let start = Instant::now();
    let (node_clusters, edge_clusters): (Vec<Vec<NodeId>>, Option<Vec<Vec<EdgeId>>>) = match method
    {
        Method::HiveElsh | Method::HiveMinHash => {
            let lsh = if method == Method::HiveElsh {
                LshMethod::Elsh
            } else {
                LshMethod::MinHash
            };
            let config = eval_hive_config(lsh, seed);
            let result = if batches > 1 {
                let mut session = HiveSession::new(config);
                for batch in pg_store::split_batches(graph, batches, seed) {
                    session.process_graph_batch(&batch);
                }
                session.finish()
            } else {
                PgHive::new(config).discover_graph(graph)
            };
            let nodes: Vec<Vec<NodeId>> = result.node_members().into_values().collect();
            let edges: Vec<Vec<EdgeId>> = result.edge_members().into_values().collect();
            (nodes, Some(edges))
        }
        Method::Gmm => match GmmSchema::new().discover(graph) {
            Ok(out) => (out.node_clusters, out.edge_clusters),
            Err(_) => {
                return CellResult {
                    node_f1: None,
                    edge_f1: None,
                    seconds: start.elapsed().as_secs_f64(),
                    node_clusters: 0,
                }
            }
        },
        Method::SchemI => match SchemI::new().discover(graph) {
            Ok(out) => (out.node_clusters, out.edge_clusters),
            Err(_) => {
                return CellResult {
                    node_f1: None,
                    edge_f1: None,
                    seconds: start.elapsed().as_secs_f64(),
                    node_clusters: 0,
                }
            }
        },
    };
    let seconds = start.elapsed().as_secs_f64();

    let node_f1 = Some(majority_f1(&node_clusters, &gt.node_type));
    let edge_truth: HashMap<EdgeId, String> = gt.edge_type.clone();
    let edge_f1 = edge_clusters.as_ref().map(|c| majority_f1(c, &edge_truth));

    CellResult {
        node_f1,
        edge_f1,
        seconds,
        node_clusters: node_clusters.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(dataset: &str, method: Method, noise: f64, avail: f64) -> CellResult {
        run_cell(&CellSpec {
            dataset: dataset.into(),
            noise,
            label_availability: avail,
            method,
            seed: 7,
            scale: 0.05,
        })
    }

    #[test]
    fn hive_scores_high_on_clean_pole() {
        let r = tiny("POLE", Method::HiveElsh, 0.0, 1.0);
        let f1 = r.node_f1.unwrap();
        assert!(f1.macro_f1 > 0.95, "node F1 {}", f1.macro_f1);
        let ef1 = r.edge_f1.unwrap();
        assert!(ef1.macro_f1 > 0.9, "edge F1 {}", ef1.macro_f1);
    }

    #[test]
    fn hive_survives_no_labels() {
        let r = tiny("POLE", Method::HiveElsh, 0.2, 0.0);
        let f1 = r.node_f1.unwrap();
        assert!(f1.macro_f1 > 0.5, "node F1 {} at 0% labels", f1.macro_f1);
    }

    #[test]
    fn baselines_refuse_missing_labels() {
        let g = tiny("POLE", Method::Gmm, 0.0, 0.5);
        assert!(g.node_f1.is_none());
        let s = tiny("POLE", Method::SchemI, 0.0, 0.5);
        assert!(s.node_f1.is_none());
    }

    #[test]
    fn gmm_has_no_edge_types() {
        let r = tiny("POLE", Method::Gmm, 0.0, 1.0);
        assert!(r.node_f1.is_some());
        assert!(r.edge_f1.is_none());
    }

    #[test]
    fn minhash_variant_runs() {
        let r = tiny("MB6", Method::HiveMinHash, 0.1, 1.0);
        assert!(r.node_f1.unwrap().macro_f1 > 0.8);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = run_cell(&CellSpec::new("NOPE"));
    }
}
