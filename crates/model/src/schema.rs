//! The schema graph (Definitions 3.2–3.4) and its merge semantics (§4.6).
//!
//! A [`SchemaGraph`] holds node types and edge types. Each type carries a
//! label set, per-property specifications (data type + mandatory/optional
//! presence), and — for edge types — endpoint label sets and a cardinality
//! class. Types discovered from unlabeled clusters are ABSTRACT, following
//! PG-Schema.
//!
//! Merging is monotone: labels, property keys, and endpoints only ever
//! grow (Lemmas 1 and 2), so a batch sequence produces a monotone chain
//! `S_1 ⊑ S_2 ⊑ …` of schemas.

use crate::datatype::DataType;
use crate::graph::PropertyGraph;
use crate::label::{LabelSet, Symbol};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a type within a schema graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TypeId(pub u32);

/// Whether a property is present on every instance of its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Presence {
    /// `f_T(p) = 1`: the property appears in every instance.
    Mandatory,
    /// The property appears in some but not all instances.
    Optional,
}

impl Presence {
    /// Merge rule: a property stays mandatory only if it was mandatory on
    /// both sides; anything else demotes to optional.
    pub fn merge(self, other: Presence) -> Presence {
        if self == Presence::Mandatory && other == Presence::Mandatory {
            Presence::Mandatory
        } else {
            Presence::Optional
        }
    }
}

/// Specification of a single property of a type.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PropertySpec {
    /// Inferred data type, if post-processing ran.
    pub datatype: Option<DataType>,
    /// Mandatory/optional constraint, if post-processing ran.
    pub presence: Option<Presence>,
}

impl PropertySpec {
    /// Merge two specs: data types join on the lattice; presence merges
    /// pessimistically. A missing side leaves the other side's datatype
    /// but demotes presence to optional only if both sides carry presence
    /// information (otherwise presence is recomputed in post-processing).
    pub fn merge(&self, other: &PropertySpec) -> PropertySpec {
        let datatype = match (self.datatype, other.datatype) {
            (Some(a), Some(b)) => Some(a.join(b)),
            (a, b) => a.or(b),
        };
        let presence = match (self.presence, other.presence) {
            (Some(a), Some(b)) => Some(a.merge(b)),
            (a, b) => a.or(b),
        };
        PropertySpec { datatype, presence }
    }
}

/// Raw maximum in/out degrees observed for an edge type (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cardinality {
    /// `max_out(ρ)`: the maximum number of distinct targets of one source.
    pub max_out: u64,
    /// `max_in(ρ)`: the maximum number of distinct sources of one target.
    pub max_in: u64,
}

/// The cardinality classes the paper derives from `(max_out, max_in)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CardinalityClass {
    /// `(1, 1)` — written `0:1` in the paper (the lower bound is unknown
    /// because only edges are queried).
    OneToOne,
    /// `(>1, 1)` — `N:1`.
    ManyToOne,
    /// `(1, >1)` — `0:N`.
    OneToMany,
    /// `(>1, >1)` — `M:N`.
    ManyToMany,
}

impl Cardinality {
    /// Classify per the paper's interpretation table.
    pub fn class(&self) -> CardinalityClass {
        match (self.max_out > 1, self.max_in > 1) {
            (false, false) => CardinalityClass::OneToOne,
            (true, false) => CardinalityClass::ManyToOne,
            (false, true) => CardinalityClass::OneToMany,
            (true, true) => CardinalityClass::ManyToMany,
        }
    }

    /// Merge rule: upper bounds only ever grow.
    pub fn merge(&self, other: &Cardinality) -> Cardinality {
        Cardinality {
            max_out: self.max_out.max(other.max_out),
            max_in: self.max_in.max(other.max_in),
        }
    }
}

impl fmt::Display for CardinalityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CardinalityClass::OneToOne => "0:1",
            CardinalityClass::ManyToOne => "N:1",
            CardinalityClass::OneToMany => "0:N",
            CardinalityClass::ManyToMany => "M:N",
        };
        f.write_str(s)
    }
}

/// A node type (Definition 3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeType {
    /// Schema-local identifier.
    pub id: TypeId,
    /// Label set λ_n. Empty for ABSTRACT types.
    pub labels: LabelSet,
    /// PG-Schema ABSTRACT marker for types inferred from unlabeled
    /// clusters that could not be merged into any labeled type.
    pub is_abstract: bool,
    /// Property key → specification (π_n).
    pub properties: BTreeMap<Symbol, PropertySpec>,
    /// How many instances were assigned to this type during discovery.
    pub instance_count: u64,
}

impl NodeType {
    /// A fresh node type with unknown property specs.
    pub fn new(id: TypeId, labels: LabelSet, keys: impl IntoIterator<Item = Symbol>) -> Self {
        NodeType {
            id,
            labels,
            is_abstract: false,
            properties: keys
                .into_iter()
                .map(|k| (k, PropertySpec::default()))
                .collect(),
            instance_count: 0,
        }
    }

    /// The property-key set of the type.
    pub fn key_set(&self) -> std::collections::BTreeSet<Symbol> {
        self.properties.keys().cloned().collect()
    }

    /// Union-merge `other` into `self` (Lemma 1).
    pub fn merge_from(&mut self, other: &NodeType) {
        self.labels = self.labels.union(&other.labels);
        for (k, spec) in &other.properties {
            let merged = self
                .properties
                .get(k)
                .map(|mine| mine.merge(spec))
                .unwrap_or(*spec);
            self.properties.insert(k.clone(), merged);
        }
        self.instance_count += other.instance_count;
        // A merge with a labeled type removes abstractness.
        if !other.labels.is_empty() || !self.labels.is_empty() {
            self.is_abstract = false;
        }
    }
}

/// An edge type (Definition 3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeType {
    /// Schema-local identifier.
    pub id: TypeId,
    /// Label set λ_e.
    pub labels: LabelSet,
    /// ABSTRACT marker (unlabeled edge clusters).
    pub is_abstract: bool,
    /// Property key → specification (π_e).
    pub properties: BTreeMap<Symbol, PropertySpec>,
    /// Union of labels observed on source endpoints (ρ_e source side).
    pub src_labels: LabelSet,
    /// Union of labels observed on target endpoints (ρ_e target side).
    pub tgt_labels: LabelSet,
    /// Cardinality constraint C, if post-processing ran.
    pub cardinality: Option<Cardinality>,
    /// Instances assigned during discovery.
    pub instance_count: u64,
}

impl EdgeType {
    /// A fresh edge type with unknown property specs.
    pub fn new(
        id: TypeId,
        labels: LabelSet,
        keys: impl IntoIterator<Item = Symbol>,
        src_labels: LabelSet,
        tgt_labels: LabelSet,
    ) -> Self {
        EdgeType {
            id,
            labels,
            is_abstract: false,
            properties: keys
                .into_iter()
                .map(|k| (k, PropertySpec::default()))
                .collect(),
            src_labels,
            tgt_labels,
            cardinality: None,
            instance_count: 0,
        }
    }

    /// The property-key set of the type.
    pub fn key_set(&self) -> std::collections::BTreeSet<Symbol> {
        self.properties.keys().cloned().collect()
    }

    /// Union-merge `other` into `self` (Lemma 2).
    pub fn merge_from(&mut self, other: &EdgeType) {
        self.labels = self.labels.union(&other.labels);
        self.src_labels = self.src_labels.union(&other.src_labels);
        self.tgt_labels = self.tgt_labels.union(&other.tgt_labels);
        for (k, spec) in &other.properties {
            let merged = self
                .properties
                .get(k)
                .map(|mine| mine.merge(spec))
                .unwrap_or(*spec);
            self.properties.insert(k.clone(), merged);
        }
        self.cardinality = match (self.cardinality, other.cardinality) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            (a, b) => a.or(b),
        };
        self.instance_count += other.instance_count;
        if !other.labels.is_empty() || !self.labels.is_empty() {
            self.is_abstract = false;
        }
    }
}

/// What [`NodeType`] and [`EdgeType`] share, for code that treats the two
/// kinds of schema type alike (type merging, post-processing).
pub trait SchemaType {
    /// Schema-local identifier.
    fn id(&self) -> TypeId;
    /// Label set (empty for types inferred from unlabeled clusters).
    fn labels(&self) -> &LabelSet;
    /// PG-Schema ABSTRACT marker.
    fn is_abstract(&self) -> bool;
    /// Property key → specification.
    fn properties(&self) -> &BTreeMap<Symbol, PropertySpec>;
    /// Mutable [`SchemaType::properties`].
    fn properties_mut(&mut self) -> &mut BTreeMap<Symbol, PropertySpec>;
    /// Union-merge `other` into `self` (Lemmas 1/2).
    fn absorb(&mut self, other: &Self);
    /// The cardinality constraint, for kinds that have one.
    fn cardinality(&self) -> Option<Cardinality>;
}

macro_rules! impl_schema_type {
    ($t:ty, $cardinality:expr) => {
        impl SchemaType for $t {
            fn id(&self) -> TypeId {
                self.id
            }
            fn labels(&self) -> &LabelSet {
                &self.labels
            }
            fn is_abstract(&self) -> bool {
                self.is_abstract
            }
            fn properties(&self) -> &BTreeMap<Symbol, PropertySpec> {
                &self.properties
            }
            fn properties_mut(&mut self) -> &mut BTreeMap<Symbol, PropertySpec> {
                &mut self.properties
            }
            fn absorb(&mut self, other: &Self) {
                self.merge_from(other)
            }
            fn cardinality(&self) -> Option<Cardinality> {
                ($cardinality)(self)
            }
        }
    };
}
impl_schema_type!(NodeType, |_: &NodeType| None);
impl_schema_type!(EdgeType, |t: &EdgeType| t.cardinality);

/// The discovered schema graph (Definition 3.4).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchemaGraph {
    /// Node types V_s.
    pub node_types: Vec<NodeType>,
    /// Edge types E_s (endpoints are the label-set unions in each type).
    pub edge_types: Vec<EdgeType>,
    next_id: u32,
}

impl SchemaGraph {
    /// An empty schema.
    pub fn new() -> Self {
        SchemaGraph::default()
    }

    /// Allocate a fresh type id.
    pub fn fresh_id(&mut self) -> TypeId {
        let id = TypeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Append a node type, assigning it a fresh id.
    pub fn push_node_type(&mut self, mut t: NodeType) -> TypeId {
        t.id = self.fresh_id();
        let id = t.id;
        self.node_types.push(t);
        id
    }

    /// Append an edge type, assigning it a fresh id.
    pub fn push_edge_type(&mut self, mut t: EdgeType) -> TypeId {
        t.id = self.fresh_id();
        let id = t.id;
        self.edge_types.push(t);
        id
    }

    /// Whether every label and property key of `self` also appears in
    /// `other` — the `⊑` generalization pre-order of §4.6/§4.7: `other`
    /// extends `self` without removing anything.
    pub fn is_generalized_by(&self, other: &SchemaGraph) -> bool {
        let node_ok = self.node_types.iter().all(|t| {
            other.node_types.iter().any(|o| {
                t.labels.is_subset_of(&o.labels)
                    && t.properties.keys().all(|k| o.properties.contains_key(k))
            })
        });
        let edge_ok = self.edge_types.iter().all(|t| {
            other.edge_types.iter().any(|o| {
                t.labels.is_subset_of(&o.labels)
                    && t.src_labels.is_subset_of(&o.src_labels)
                    && t.tgt_labels.is_subset_of(&o.tgt_labels)
                    && t.properties.keys().all(|k| o.properties.contains_key(k))
            })
        });
        node_ok && edge_ok
    }

    /// Type-completeness check (§4.7): every node's labels and properties
    /// are covered by some node type, and likewise for edges. Returns the
    /// ids of uncovered elements (empty = complete).
    pub fn uncovered_elements(&self, graph: &PropertyGraph) -> (Vec<u64>, Vec<u64>) {
        let bad_nodes = graph
            .nodes()
            .filter(|n| {
                !self.node_types.iter().any(|t| {
                    n.labels.is_subset_of(&t.labels)
                        && n.props.keys().all(|k| t.properties.contains_key(k))
                })
            })
            .map(|n| n.id.0)
            .collect();
        let bad_edges = graph
            .edges()
            .filter(|e| {
                !self.edge_types.iter().any(|t| {
                    e.labels.is_subset_of(&t.labels)
                        && e.props.keys().all(|k| t.properties.contains_key(k))
                })
            })
            .map(|e| e.id.0)
            .collect();
        (bad_nodes, bad_edges)
    }
}

impl fmt::Display for SchemaGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SchemaGraph: {} node types, {} edge types",
            self.node_types.len(),
            self.edge_types.len()
        )?;
        for t in &self.node_types {
            writeln!(
                f,
                "  node {}{} props={}",
                t.labels,
                if t.is_abstract { " ABSTRACT" } else { "" },
                t.properties.len()
            )?;
        }
        for t in &self.edge_types {
            writeln!(
                f,
                "  edge {} ({} -> {}) props={}",
                t.labels,
                t.src_labels,
                t.tgt_labels,
                t.properties.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::sym;

    fn keyset(ks: &[&str]) -> Vec<Symbol> {
        ks.iter().map(|k| sym(k)).collect()
    }

    #[test]
    fn presence_merge_is_pessimistic() {
        use Presence::*;
        assert_eq!(Mandatory.merge(Mandatory), Mandatory);
        assert_eq!(Mandatory.merge(Optional), Optional);
        assert_eq!(Optional.merge(Mandatory), Optional);
        assert_eq!(Optional.merge(Optional), Optional);
    }

    #[test]
    fn cardinality_classes() {
        assert_eq!(
            Cardinality {
                max_out: 1,
                max_in: 1
            }
            .class(),
            CardinalityClass::OneToOne
        );
        assert_eq!(
            Cardinality {
                max_out: 5,
                max_in: 1
            }
            .class(),
            CardinalityClass::ManyToOne
        );
        assert_eq!(
            Cardinality {
                max_out: 1,
                max_in: 9
            }
            .class(),
            CardinalityClass::OneToMany
        );
        assert_eq!(
            Cardinality {
                max_out: 2,
                max_in: 2
            }
            .class(),
            CardinalityClass::ManyToMany
        );
        assert_eq!(CardinalityClass::ManyToOne.to_string(), "N:1");
    }

    #[test]
    fn cardinality_merge_takes_maxima() {
        let a = Cardinality {
            max_out: 3,
            max_in: 1,
        };
        let b = Cardinality {
            max_out: 1,
            max_in: 4,
        };
        assert_eq!(
            a.merge(&b),
            Cardinality {
                max_out: 3,
                max_in: 4
            }
        );
    }

    #[test]
    fn node_type_merge_is_monotone() {
        let mut a = NodeType::new(TypeId(0), LabelSet::single("Person"), keyset(&["name"]));
        a.instance_count = 2;
        let mut b = NodeType::new(TypeId(1), LabelSet::empty(), keyset(&["age"]));
        b.is_abstract = true;
        b.instance_count = 3;
        let before_keys = a.key_set();
        a.merge_from(&b);
        assert!(before_keys.is_subset(&a.key_set()));
        assert!(a.properties.contains_key(&sym("age")));
        assert_eq!(a.instance_count, 5);
        assert!(!a.is_abstract, "merging into a labeled type stays concrete");
    }

    #[test]
    fn property_spec_merge_joins_types() {
        let a = PropertySpec {
            datatype: Some(DataType::Int),
            presence: Some(Presence::Mandatory),
        };
        let b = PropertySpec {
            datatype: Some(DataType::Float),
            presence: Some(Presence::Mandatory),
        };
        let m = a.merge(&b);
        assert_eq!(m.datatype, Some(DataType::Float));
        assert_eq!(m.presence, Some(Presence::Mandatory));
        let c = PropertySpec::default();
        assert_eq!(a.merge(&c), a);
    }

    #[test]
    fn generalization_preorder() {
        let mut s1 = SchemaGraph::new();
        s1.push_node_type(NodeType::new(
            TypeId(0),
            LabelSet::single("Person"),
            keyset(&["name"]),
        ));
        let mut s2 = s1.clone();
        // Extend the type with a new key: still a generalization.
        s2.node_types[0]
            .properties
            .insert(sym("age"), PropertySpec::default());
        assert!(s1.is_generalized_by(&s2));
        assert!(!s2.is_generalized_by(&s1));
        // Reflexivity.
        assert!(s1.is_generalized_by(&s1));
    }

    #[test]
    fn uncovered_elements_detects_gaps() {
        use crate::graph::{Node, PropertyGraph};
        let mut g = PropertyGraph::new();
        g.add_node(Node::new(1, LabelSet::single("Person")).with_prop("name", "a"))
            .unwrap();
        g.add_node(Node::new(2, LabelSet::single("Robot")).with_prop("serial", 5i64))
            .unwrap();
        let mut s = SchemaGraph::new();
        s.push_node_type(NodeType::new(
            TypeId(0),
            LabelSet::single("Person"),
            keyset(&["name"]),
        ));
        let (bad_nodes, bad_edges) = s.uncovered_elements(&g);
        assert_eq!(bad_nodes, vec![2]);
        assert!(bad_edges.is_empty());
    }
}
