//! The one-shot pipeline façade and the discovery result type.

use crate::config::HiveConfig;
use crate::incremental::{BatchTiming, HiveSession};
use crate::state::DiscoveryState;
use pg_lsh::AdaptiveParams;
use pg_model::{EdgeId, NodeId, PropertyGraph, SchemaGraph, TypeId};
use pg_store::{load, EdgeRecord, NodeRecord};
use std::collections::HashMap;

/// The output of schema discovery: the schema graph plus everything an
/// evaluation or downstream tool needs — instance assignments, the
/// statistics accumulators, the adaptive parameters used, and timings.
#[derive(Debug)]
pub struct DiscoveryResult {
    /// The inferred schema (Definition 3.4), with constraints, data
    /// types, and cardinalities if post-processing ran.
    pub schema: SchemaGraph,
    /// Full discovery state (the same schema + per-type accumulators,
    /// including member ids and data-type histograms).
    pub state: DiscoveryState,
    /// Adaptive LSH parameters used for node clustering (None if manual).
    pub node_params: Option<AdaptiveParams>,
    /// Adaptive LSH parameters used for edge clustering (None if manual).
    pub edge_params: Option<AdaptiveParams>,
    /// Per-batch timings.
    pub timings: Vec<BatchTiming>,
}

impl DiscoveryResult {
    /// Node → type assignment.
    pub fn node_assignment(&self) -> HashMap<NodeId, TypeId> {
        let mut out = HashMap::new();
        for (tid, acc) in &self.state.node_accums {
            for &n in acc.members() {
                out.insert(n, *tid);
            }
        }
        out
    }

    /// Edge → type assignment.
    pub fn edge_assignment(&self) -> HashMap<EdgeId, TypeId> {
        let mut out = HashMap::new();
        for (tid, acc) in &self.state.edge_accums {
            for &e in acc.members() {
                out.insert(e, *tid);
            }
        }
        out
    }

    /// Members of each node type (cluster contents, for evaluation).
    pub fn node_members(&self) -> HashMap<TypeId, Vec<NodeId>> {
        self.state
            .node_accums
            .iter()
            .map(|(t, a)| (*t, a.members().to_vec()))
            .collect()
    }

    /// Members of each edge type.
    pub fn edge_members(&self) -> HashMap<TypeId, Vec<EdgeId>> {
        self.state
            .edge_accums
            .iter()
            .map(|(t, a)| (*t, a.members().to_vec()))
            .collect()
    }
}

/// The PG-HIVE schema-discovery engine.
#[derive(Debug, Clone)]
pub struct PgHive {
    config: HiveConfig,
}

impl PgHive {
    /// Create an engine with the given configuration.
    pub fn new(config: HiveConfig) -> PgHive {
        PgHive { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &HiveConfig {
        &self.config
    }

    /// Discover the schema of a full graph in one pass (the static
    /// module of §4.7): load → preprocess → cluster → extract →
    /// post-process.
    pub fn discover_graph(&self, graph: &PropertyGraph) -> DiscoveryResult {
        let (nodes, edges) = load(graph);
        self.discover(&nodes, &edges)
    }

    /// Discover the schema from pre-loaded records.
    pub fn discover(&self, nodes: &[NodeRecord], edges: &[EdgeRecord]) -> DiscoveryResult {
        let mut session = HiveSession::new(self.config.clone());
        session.process_batch(nodes, edges);
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbeddingKind;
    use crate::fixtures::figure1;
    use pg_model::{CardinalityClass, DataType, Presence, PropertyGraph};

    fn quick_config() -> HiveConfig {
        let mut c = HiveConfig::default();
        if let EmbeddingKind::Word2Vec(ref mut w) = c.embedding {
            w.dim = 5;
            w.epochs = 2;
        }
        c
    }

    #[test]
    fn figure1_end_to_end() {
        let r = PgHive::new(quick_config()).discover_graph(&figure1());
        // Four node types: Person (absorbing Alice), Org, Post, Place.
        assert_eq!(r.schema.node_types.len(), 4, "schema:\n{}", r.schema);
        // Four edge types.
        assert_eq!(r.schema.edge_types.len(), 4);

        let person = r
            .schema
            .node_types
            .iter()
            .find(|t| t.labels.contains("Person"))
            .unwrap();
        assert_eq!(
            r.state.node_accums[&person.id].count, 3,
            "Alice merged into Person via Jaccard"
        );
        // Mandatory name/gender/bday (Example 6).
        for key in ["name", "gender", "bday"] {
            assert_eq!(
                person.properties[&pg_model::sym(key)].presence,
                Some(Presence::Mandatory),
                "{key}"
            );
        }
        assert_eq!(
            person.properties[&pg_model::sym("bday")].datatype,
            Some(DataType::Date)
        );

        // Post has two optional structure-split properties.
        let post = r
            .schema
            .node_types
            .iter()
            .find(|t| t.labels.contains("Post"))
            .unwrap();
        assert_eq!(
            post.properties[&pg_model::sym("imgFile")].presence,
            Some(Presence::Optional)
        );

        // WORKS_AT connects Person → Org (Example 8 shape).
        let works = r
            .schema
            .edge_types
            .iter()
            .find(|t| t.labels.contains("WORKS_AT"))
            .unwrap();
        assert!(works.src_labels.contains("Person"));
        assert!(works.tgt_labels.contains("Org"));
        assert_eq!(
            works.cardinality.unwrap().class(),
            CardinalityClass::OneToOne,
            "single observed pair"
        );
    }

    #[test]
    fn minhash_variant_also_discovers_figure1() {
        let mut cfg = quick_config();
        cfg.method = crate::config::LshMethod::MinHash;
        let r = PgHive::new(cfg).discover_graph(&figure1());
        assert_eq!(r.schema.node_types.len(), 4, "schema:\n{}", r.schema);
        assert_eq!(r.schema.edge_types.len(), 4);
    }

    #[test]
    fn assignments_cover_every_element() {
        let g = figure1();
        let r = PgHive::new(quick_config()).discover_graph(&g);
        let na = r.node_assignment();
        let ea = r.edge_assignment();
        assert_eq!(na.len(), g.node_count());
        assert_eq!(ea.len(), g.edge_count());
        for n in g.nodes() {
            assert!(na.contains_key(&n.id), "node {:?} unassigned", n.id);
        }
    }

    #[test]
    fn type_completeness_guarantee() {
        // §4.7: every node's labels and properties are covered by a type.
        let g = figure1();
        let r = PgHive::new(quick_config()).discover_graph(&g);
        let (bad_nodes, bad_edges) = r.schema.uncovered_elements(&g);
        assert!(bad_nodes.is_empty(), "uncovered nodes: {bad_nodes:?}");
        assert!(bad_edges.is_empty(), "uncovered edges: {bad_edges:?}");
    }

    #[test]
    fn empty_graph_discovers_empty_schema() {
        let r = PgHive::new(quick_config()).discover_graph(&PropertyGraph::new());
        assert!(r.schema.node_types.is_empty() && r.schema.edge_types.is_empty());
        assert!(r.node_assignment().is_empty());
    }

    #[test]
    fn determinism_same_seed_same_schema() {
        let g = figure1();
        let a = PgHive::new(quick_config()).discover_graph(&g);
        let b = PgHive::new(quick_config()).discover_graph(&g);
        assert_eq!(a.schema, b.schema);
    }
}
