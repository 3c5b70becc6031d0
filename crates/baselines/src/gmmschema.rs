//! The GMMSchema baseline (Bonifati, Dumbrava & Mir, EDBT 2022),
//! reimplemented from its description in the PG-HIVE paper (§2, §5):
//!
//! * hierarchical clustering based on Gaussian Mixture Models over node
//!   label and property distributions;
//! * **node types only** (no edge types);
//! * **assumes fully labeled datasets** — refuses unlabeled nodes;
//! * not designed for missing/noisy properties: under property noise the
//!   variety of property distributions causes misclustering;
//! * applies **sampling** on large graphs to bound the EM cost, trading
//!   completeness.
//!
//! Nodes are embedded as (label-set one-hot ‖ property-presence bits);
//! a GMM with BIC-selected component count clusters them. Because
//! property bits dominate the feature vector as noise grows, components
//! straddle label boundaries — exactly the degradation Figure 4 shows.

use crate::gmm::{Gmm, GmmConfig};
use crate::{BaselineError, BaselineOutput};
use pg_model::{LabelSet, PropertyGraph, Symbol};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// GMMSchema configuration.
#[derive(Debug, Clone, Copy)]
pub struct GmmSchemaConfig {
    /// Fit on at most this many nodes (sampling for large graphs); the
    /// rest are assigned by `predict`.
    pub sample_cap: usize,
    /// Extra components explored beyond the number of distinct label
    /// sets.
    pub extra_components: usize,
    /// EM settings.
    pub gmm: GmmConfig,
}

impl Default for GmmSchemaConfig {
    fn default() -> Self {
        GmmSchemaConfig {
            sample_cap: 20_000,
            extra_components: 6,
            gmm: GmmConfig::default(),
        }
    }
}

/// The GMMSchema baseline engine.
#[derive(Debug, Clone, Default)]
pub struct GmmSchema {
    config: GmmSchemaConfig,
}

impl GmmSchema {
    /// Create with default configuration.
    pub fn new() -> GmmSchema {
        GmmSchema {
            config: GmmSchemaConfig::default(),
        }
    }

    /// Discover node clusters. Fails on any unlabeled node (Table 1:
    /// GMMSchema is not label-independent). Edge clusters are `None` —
    /// the method does not infer edge types.
    pub fn discover(&self, graph: &PropertyGraph) -> Result<BaselineOutput, BaselineError> {
        let unlabeled = graph.nodes().filter(|n| n.labels.is_empty()).count();
        if unlabeled > 0 {
            return Err(BaselineError::RequiresFullLabels { unlabeled });
        }
        if graph.node_count() == 0 {
            return Ok(BaselineOutput {
                node_clusters: Vec::new(),
                edge_clusters: None,
            });
        }

        // Feature space: presence bits over property keys. GMMSchema
        // clusters on property *distributions*; the label sets bound the
        // component search below. This is also why the method degrades
        // under property noise (Figure 4): removed properties inflate
        // the per-component variance until components straddle types.
        let label_sets: Vec<LabelSet> = {
            let s: BTreeSet<LabelSet> = graph.nodes().map(|n| n.labels.clone()).collect();
            s.into_iter().collect()
        };
        let keys: Vec<Symbol> = graph.node_property_keys();
        let key_idx: BTreeMap<&Symbol, usize> =
            keys.iter().enumerate().map(|(i, k)| (k, i)).collect();
        let dim = keys.len();
        if dim == 0 {
            // Degenerate: no properties anywhere → one cluster per label
            // set (the hierarchy's first level).
            let mut by_labels: BTreeMap<LabelSet, Vec<pg_model::NodeId>> = BTreeMap::new();
            for n in graph.nodes() {
                by_labels.entry(n.labels.clone()).or_default().push(n.id);
            }
            return Ok(BaselineOutput {
                node_clusters: by_labels.into_values().collect(),
                edge_clusters: None,
            });
        }

        let featurize = |n: &pg_model::Node| -> Vec<f64> {
            let mut v = vec![0.0; dim];
            for k in n.props.keys() {
                v[key_idx[k]] = 1.0;
            }
            v
        };

        let all: Vec<(pg_model::NodeId, Vec<f64>)> =
            graph.nodes().map(|n| (n.id, featurize(n))).collect();

        // Sampling for large graphs (limitation (iv) in §2).
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.gmm.seed);
        let train: Vec<Vec<f64>> = if all.len() > self.config.sample_cap {
            let mut idx: Vec<usize> = (0..all.len()).collect();
            idx.shuffle(&mut rng);
            idx.truncate(self.config.sample_cap);
            idx.into_iter().map(|i| all[i].1.clone()).collect()
        } else {
            all.iter().map(|(_, v)| v.clone()).collect()
        };

        let k_min = label_sets.len().max(1);
        let k_max = k_min + self.config.extra_components;
        let model = Gmm::fit_select(&train, k_min, k_max, &self.config.gmm);

        let mut clusters: Vec<Vec<pg_model::NodeId>> = vec![Vec::new(); model.k()];
        for (id, v) in &all {
            clusters[model.predict(v)].push(*id);
        }
        clusters.retain(|c| !c.is_empty());
        Ok(BaselineOutput {
            node_clusters: clusters,
            edge_clusters: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_model::{LabelSet, Node};

    fn clean_graph(n: u64) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        for i in 0..n {
            g.add_node(
                Node::new(i, LabelSet::single("Person"))
                    .with_prop("name", "x")
                    .with_prop("age", 1i64),
            )
            .unwrap();
            g.add_node(
                Node::new(n + i, LabelSet::single("Org"))
                    .with_prop("url", "u")
                    .with_prop("country", "gr"),
            )
            .unwrap();
        }
        g
    }

    #[test]
    fn clean_data_recovers_types() {
        let g = clean_graph(40);
        let out = GmmSchema::new().discover(&g).unwrap();
        assert!(out.edge_clusters.is_none(), "node types only");
        // Two clean types → clusters are label-pure.
        for c in &out.node_clusters {
            let labels: BTreeSet<_> = c
                .iter()
                .map(|id| g.node(*id).unwrap().labels.clone())
                .collect();
            assert_eq!(labels.len(), 1, "mixed cluster on clean data");
        }
        let total: usize = out.node_clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 80, "every node assigned exactly once");
    }

    #[test]
    fn refuses_unlabeled_nodes() {
        let mut g = clean_graph(5);
        g.add_node(Node::new(999, LabelSet::empty()).with_prop("x", 1i64))
            .unwrap();
        let err = GmmSchema::new().discover(&g).unwrap_err();
        assert_eq!(err, BaselineError::RequiresFullLabels { unlabeled: 1 });
    }

    #[test]
    fn empty_graph_is_fine() {
        let out = GmmSchema::new().discover(&PropertyGraph::new()).unwrap();
        assert!(out.node_clusters.is_empty());
    }

    #[test]
    fn sampling_path_still_covers_all_nodes() {
        let g = clean_graph(60);
        let cfg = GmmSchemaConfig {
            sample_cap: 20, // force the sampling path
            ..Default::default()
        };
        let out = GmmSchema { config: cfg }.discover(&g).unwrap();
        let total: usize = out.node_clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 120);
    }
}
