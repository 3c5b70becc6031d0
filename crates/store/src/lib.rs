//! # pg-store
//!
//! The storage substrate PG-HIVE reads from. The paper loads nodes and
//! edges from Neo4j with a single query into a Spark DataFrame; this crate
//! stands in for both:
//!
//! * [`load()`] — the "single query" loading step: it materializes
//!   [`NodeRecord`]s and [`EdgeRecord`]s, where each edge record already
//!   carries its endpoint labels (the paper queries edges together with
//!   the labels of their source and target so the edge feature vector can
//!   be built without joins).
//! * [`csv`] / [`jsonl`] — flat-file import/export, standing in for the
//!   CSV dumps the paper's datasets ship as.
//! * [`batch`] — the random batch splitter used by the incremental
//!   experiments (§5, Figure 7).
//! * [`query`] — degree aggregations straight off the graph: the oracle
//!   the cardinality-inference tests compare against.
//! * [`ingest`] — lenient-loading error policies and the quarantine
//!   report for malformed input lines.

pub mod batch;
pub mod csv;
pub mod decode;
pub mod ingest;
pub mod jsonl;
pub mod load;
pub mod query;

pub use batch::{split_batches, split_batches_owned, GraphBatch};
pub use decode::{DecodeError, JsonlDecoder};
pub use ingest::{ErrorPolicy, Quarantine, QuarantineEntry};
pub use jsonl::{
    from_jsonl_reader_with_policy, read_jsonl_elements, read_jsonl_elements_with, Element,
    LoadError,
};
pub use load::{load, load_owned, EdgeRecord, NodeRecord};
