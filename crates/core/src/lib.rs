//! # pg-hive
//!
//! PG-HIVE: hybrid incremental schema discovery for property graphs
//! (EDBT 2026). Given a property graph — possibly noisy, partially
//! labeled, or entirely unlabeled — PG-HIVE infers a
//! [`pg_model::SchemaGraph`]: node types, edge types, property data
//! types, mandatory/optional constraints, and edge cardinalities.
//!
//! ## Pipeline (§4, Algorithm 1)
//!
//! 1. **Load** nodes/edges (with resolved endpoint labels) — `pg-store`.
//! 2. **Preprocess** into hybrid feature vectors: a Word2Vec embedding of
//!    the (sorted, concatenated) label set ‖ a binary property-presence
//!    vector ([`features`]).
//! 3. **Cluster** with LSH — Euclidean or MinHash, parameters chosen
//!    adaptively from a sample of the data ([`cluster`], `pg-lsh`).
//! 4. **Extract types** (Algorithm 2): merge labeled clusters by label
//!    set, merge unlabeled clusters into labeled ones by property-set
//!    Jaccard ≥ θ (default 0.9), keep leftovers as ABSTRACT types
//!    ([`extract`]).
//! 5. **Post-process** (optional): mandatory/optional constraints,
//!    property data types (full scan or sampled), and edge cardinalities
//!    ([`constraints`], [`datatypes`], [`cardinality`]).
//! 6. **Serialize** to PG-Schema (STRICT/LOOSE), XSD, or JSON
//!    ([`serialize`]).
//!
//! The whole pipeline runs either on a full graph
//! ([`PgHive::discover_graph`]) or incrementally over batches
//! ([`HiveSession`]), where each batch's clusters are merged monotonically
//! into the running schema (§4.6).
//!
//! ## Quick start
//!
//! ```
//! use pg_hive::{HiveConfig, PgHive};
//! use pg_model::{Edge, LabelSet, Node, NodeId, PropertyGraph};
//!
//! let mut g = PropertyGraph::new();
//! g.add_node(Node::new(1, LabelSet::single("Person")).with_prop("name", "Ada")).unwrap();
//! g.add_node(Node::new(2, LabelSet::single("Person")).with_prop("name", "Bob")).unwrap();
//! g.add_edge(Edge::new(3, NodeId(1), NodeId(2), LabelSet::single("KNOWS"))).unwrap();
//!
//! let result = PgHive::new(HiveConfig::default()).discover_graph(&g);
//! assert_eq!(result.schema.node_types.len(), 1);
//! assert_eq!(result.schema.edge_types.len(), 1);
//! ```

pub mod cardinality;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod constraints;
pub mod datatypes;
pub mod diff;
pub mod extract;
pub mod features;
pub mod fixtures;
pub mod handle;
pub mod incremental;
pub mod merge;
pub mod pipeline;
pub mod refine;
pub mod serialize;
pub mod sketch;
pub mod state;
pub mod validate;

pub use checkpoint::{CheckpointError, CheckpointStore, DurableSession, ResumeOutcome};
pub use cluster::DedupStats;
pub use config::{
    DatatypeSampling, EmbeddingKind, HiveConfig, LshMethod, LshParams, MergeSimilarity,
    StreamConfig,
};
pub use diff::{apply, diff, EdgeTypeDiff, NodeTypeDiff, PropertyChange, SchemaDiff};
pub use features::Embedder;
pub use handle::{
    IngestError, IngestOutcome, MergeOutcome, SessionAux, SharedSession, VersionLookup,
};
pub use incremental::{
    AccumMode, BatchTiming, HiveSession, ModeMismatch, SessionCheckpoint, SessionMemoryStats,
};
pub use merge::{
    discover_sharded, merge_schemas, merge_schemas_with, merge_states, schema_to_state, MergeError,
    MergeInput, ShardState, SHARD_SPLIT_SALT,
};
pub use pipeline::{DiscoveryResult, PgHive};
pub use serialize::{
    canonical_form, content_hash, content_hash_hex, SchemaHistory, SchemaMode, SchemaVersion,
};
pub use sketch::{DistinctSketch, ValueSample, SKETCH_SALT};
pub use state::{
    DiscoveryState, DtypeHist, EdgeTypeAccum, EndpointSketch, Kind, Membership, NodeTypeAccum,
    Record, Sketch, SketchParams, TypeAccum,
};
pub use validate::{validate, ValidationReport, Violation};
