//! The generator proper: schema in, property graph + known type
//! assignment out.

use crate::profile::ValueModel;
use crate::spec::SynthSpec;
use pg_model::{Edge, EdgeId, EdgeType, NodeId, Presence, PropertyGraph};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Spurious-label vocabulary used by the `label_noise_rate` knob.
pub const NOISE_LABELS: [&str; 3] = ["Tmp", "Imported", "Draft"];

/// The ground-truth assignment: which declared type generated each
/// element. Type names come from [`node_type_name`] / [`edge_type_name`]
/// and are opaque to scoring — only the partition they induce matters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeAssignment {
    /// Generating node type per node.
    pub node_type: HashMap<NodeId, String>,
    /// Generating edge type per edge.
    pub edge_type: HashMap<EdgeId, String>,
}

impl TypeAssignment {
    /// Members of a named node type, sorted by id.
    pub fn nodes_of(&self, name: &str) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .node_type
            .iter()
            .filter(|(_, t)| t.as_str() == name)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// The same assignment under an id permutation (companion to
    /// [`crate::transform::permute_ids`]).
    pub fn remapped(
        &self,
        node_map: &HashMap<NodeId, NodeId>,
        edge_map: &HashMap<EdgeId, EdgeId>,
    ) -> TypeAssignment {
        TypeAssignment {
            node_type: self
                .node_type
                .iter()
                .map(|(id, t)| (node_map[id], t.clone()))
                .collect(),
            edge_type: self
                .edge_type
                .iter()
                .map(|(id, t)| (edge_map[id], t.clone()))
                .collect(),
        }
    }
}

/// A generated graph together with its ground truth.
#[derive(Debug, Clone)]
pub struct SynthOutput {
    /// The generated property graph.
    pub graph: PropertyGraph,
    /// The generating type of every element.
    pub truth: TypeAssignment,
}

/// One conforming instance of an edge type: mandatory properties always
/// present, optional ones drawn at the model's presence rate, values
/// matching the declared data types. Public so mutation tests can grow
/// a graph edge-by-edge without re-running the whole generator.
pub fn edge_instance(
    id: u64,
    et: &EdgeType,
    src: NodeId,
    tgt: NodeId,
    values: &ValueModel,
    rng: &mut ChaCha8Rng,
) -> Edge {
    let mut edge = Edge::new(id, src, tgt, et.labels.clone());
    for (key, ps) in &et.properties {
        let present = match ps.presence {
            Some(Presence::Optional) => rng.gen_bool(values.optional_present_rate.clamp(0.0, 1.0)),
            _ => true,
        };
        if present {
            edge.props
                .insert(key.clone(), values.draw(ps.datatype, rng));
        }
    }
    edge
}

/// Generate a property graph from the spec. Deterministic in
/// `(spec, seed)`: the generator runs single-threaded on one
/// `ChaCha8Rng` stream, so the output is bit-identical on any machine.
///
/// Guarantees for a clean (every knob zero, as in [`crate::NoiseProfile::clean`]) spec:
///
/// * every node/edge STRICT-validates against `spec.schema` — mandatory
///   properties are always present, values match declared data types,
///   endpoints carry the declared labels, and edge wiring never exceeds
///   a declared cardinality bound (distinct out-neighbors per source
///   ≤ `max_out`, distinct in-neighbors per target ≤ `max_in`);
/// * every element's labels identify its generating type exactly, so a
///   label-driven discovery run recovers the ground-truth partition.
///
/// Noise is applied on top: label stripping / spurious labels at node
/// creation, optional-property thinning on nodes and edges, and
/// mandatory-property erosion on nodes
/// ([`crate::NoiseProfile::missing_mandatory_rate`] — the knob that
/// attacks the type discriminator itself). Ground truth always records
/// the *generating* type, noise notwithstanding.
pub fn synthesize(spec: &SynthSpec, seed: u64) -> SynthOutput {
    let schema = &spec.schema;
    let mut graph = PropertyGraph::with_capacity(
        schema.node_types.len() * spec.nodes_per_type,
        schema.edge_types.len() * spec.edges_per_type,
    );
    let mut truth = TypeAssignment::default();
    for chunk in crate::stream::StreamGen::new(spec, seed) {
        for (node, name) in chunk.nodes.into_iter().zip(chunk.node_types) {
            let id = graph.add_node(node).expect("generated node ids are unique");
            truth.node_type.insert(id, name);
        }
        for (se, name) in chunk.edges.into_iter().zip(chunk.edge_types) {
            let id = graph.add_edge(se.edge).expect("wired endpoints exist");
            truth.edge_type.insert(id, name);
        }
    }
    SynthOutput { graph, truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{edge_type_name, random_schema, SchemaParams};
    use std::collections::BTreeSet;

    fn spec(seed: u64) -> SynthSpec {
        SynthSpec::new(random_schema(&SchemaParams::default(), seed))
    }

    #[test]
    fn synthesis_is_bit_deterministic() {
        for seed in [0u64, 1, 99] {
            let a = synthesize(&spec(seed), seed);
            let b = synthesize(&spec(seed), seed);
            assert_eq!(
                a.graph.nodes().collect::<Vec<_>>(),
                b.graph.nodes().collect::<Vec<_>>()
            );
            assert_eq!(
                a.graph.edges().collect::<Vec<_>>(),
                b.graph.edges().collect::<Vec<_>>()
            );
            assert_eq!(a.truth, b.truth);
        }
    }

    #[test]
    fn every_element_has_a_ground_truth_type() {
        let out = synthesize(&spec(5), 5);
        assert_eq!(out.graph.node_count(), out.truth.node_type.len());
        assert_eq!(out.graph.edge_count(), out.truth.edge_type.len());
        assert!(out.graph.edge_count() > 0, "schema should wire some edges");
        for n in out.graph.nodes() {
            assert!(out.truth.node_type.contains_key(&n.id));
        }
        for e in out.graph.edges() {
            assert!(out.truth.edge_type.contains_key(&e.id));
        }
    }

    #[test]
    fn clean_graph_labels_match_the_generating_type() {
        let s = spec(7);
        let out = synthesize(&s, 7);
        for nt in &s.schema.node_types {
            let name = crate::spec::node_type_name(nt);
            for id in out.truth.nodes_of(&name) {
                assert_eq!(out.graph.node(id).unwrap().labels, nt.labels);
            }
        }
    }

    #[test]
    fn cardinality_bounds_are_respected() {
        for seed in 0..20u64 {
            let s = spec(seed);
            let out = synthesize(&s, seed);
            for et in &s.schema.edge_types {
                let Some(c) = et.cardinality else { continue };
                let name = edge_type_name(et);
                let mut out_nbrs: HashMap<NodeId, BTreeSet<NodeId>> = HashMap::new();
                let mut in_nbrs: HashMap<NodeId, BTreeSet<NodeId>> = HashMap::new();
                for e in out.graph.edges() {
                    if out.truth.edge_type[&e.id] == name {
                        out_nbrs.entry(e.src).or_default().insert(e.tgt);
                        in_nbrs.entry(e.tgt).or_default().insert(e.src);
                    }
                }
                for nbrs in out_nbrs.values() {
                    assert!(nbrs.len() as u64 <= c.max_out, "seed {seed} type {name}");
                }
                for nbrs in in_nbrs.values() {
                    assert!(nbrs.len() as u64 <= c.max_in, "seed {seed} type {name}");
                }
            }
        }
    }

    #[test]
    fn full_unlabeled_noise_strips_every_label() {
        let s = spec(3).with_noise(crate::NoiseProfile {
            unlabeled_fraction: 1.0,
            ..Default::default()
        });
        let out = synthesize(&s, 3);
        assert!(out.graph.nodes().all(|n| n.labels.is_empty()));
        // Ground truth still knows the generating types.
        assert_eq!(out.graph.node_count(), out.truth.node_type.len());
    }

    #[test]
    fn full_mandatory_erosion_strips_every_mandatory_node_property() {
        let s = spec(6).with_noise(crate::NoiseProfile {
            missing_mandatory_rate: 1.0,
            ..Default::default()
        });
        let out = synthesize(&s, 6);
        for nt in &s.schema.node_types {
            let mandatory: Vec<_> = nt
                .properties
                .iter()
                .filter(|(_, ps)| ps.presence == Some(Presence::Mandatory))
                .map(|(k, _)| k.clone())
                .collect();
            for id in out.truth.nodes_of(&crate::spec::node_type_name(nt)) {
                let node = out.graph.node(id).unwrap();
                for key in &mandatory {
                    assert!(
                        !node.props.contains_key(key),
                        "mandatory {key} survived full erosion on {id:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn label_noise_only_adds_labels() {
        let s = spec(4).with_noise(crate::NoiseProfile {
            label_noise_rate: 0.5,
            ..Default::default()
        });
        let out = synthesize(&s, 4);
        let mut grew = 0;
        for nt in &s.schema.node_types {
            let name = crate::spec::node_type_name(nt);
            for id in out.truth.nodes_of(&name) {
                let labels = &out.graph.node(id).unwrap().labels;
                assert!(nt.labels.is_subset_of(labels));
                if labels.len() > nt.labels.len() {
                    grew += 1;
                }
            }
        }
        assert!(grew > 0, "a 0.5 rate should tag some nodes");
    }
}
