//! # pg-model
//!
//! The property-graph data model underlying PG-HIVE, following the formal
//! definitions of the paper (Definitions 3.1–3.6) and the PG-Schema model
//! of Angles et al.
//!
//! The crate provides:
//!
//! * [`PropertyValue`] and [`DataType`] — typed property values with the
//!   priority-based data-type inference hierarchy used by PG-HIVE
//!   (integer → float → boolean → date/datetime → string).
//! * [`PropertyGraph`], [`Node`], [`Edge`] — a directed multigraph where
//!   both nodes and edges carry label sets and key–value properties
//!   (Definition 3.1).
//! * [`PropMap`] — a record's properties as one key-sorted vector.
//! * [`LabelSet`] — a canonically sorted, deduplicated set of labels; the
//!   sorted concatenation of a multi-label set acts as a single token for
//!   embedding purposes, as the paper prescribes.
//! * [`NodePattern`] / [`EdgePattern`] — structural patterns
//!   (Definitions 3.5/3.6) used both for dataset characterization
//!   (Table 2) and for cluster representatives.
//! * [`SchemaGraph`], [`NodeType`], [`EdgeType`] — the inferred schema
//!   (Definitions 3.2–3.4), with mandatory/optional property constraints,
//!   property data types, edge cardinalities, and ABSTRACT types for
//!   unlabeled clusters.
//! * [`GraphStats`] — dataset statistics in the shape of the paper's
//!   Table 2.

pub mod datatype;
pub mod error;
pub mod graph;
pub mod intern;
pub mod label;
pub mod pattern;
pub mod props;
pub mod schema;
pub mod stats;
pub mod value;

pub use datatype::DataType;
pub use error::ModelError;
pub use graph::{Edge, EdgeId, Node, NodeId, PropertyGraph};
pub use intern::{FnvBuildHasher, FnvHasher, SymbolInterner};
pub use label::{sym, LabelSet, Symbol};
pub use pattern::{EdgePattern, NodePattern};
pub use props::PropMap;
pub use schema::{
    Cardinality, CardinalityClass, EdgeType, NodeType, Presence, PropertySpec, SchemaGraph,
    SchemaType, TypeId,
};
pub use stats::GraphStats;
pub use value::{Date, DateTime, PropertyValue};
