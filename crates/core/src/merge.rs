//! Distributed discovery: the monotone schema merge of §4.6 lifted from
//! batches-within-a-session to whole per-shard discovery results.
//!
//! Every step of Algorithm 1's merge is a set union or an integer-additive
//! accumulator fold, so merging is commutative and associative up to type
//! renumbering. This module makes that a first-class, *canonical*
//! operation:
//!
//! * **Type alignment by structural fingerprint** — every per-shard type
//!   re-enters Algorithm 2 as a cluster (labels, key set, accumulator):
//!   labeled types align by exact label set (plus endpoint label sets for
//!   edges, with unlabeled endpoints as wildcards), unlabeled types by
//!   property-set Jaccard ≥ θ against labeled then abstract types.
//! * **Union of property sets with mandatory-key intersection** —
//!   per-key presence counts add across shards, so a key is MANDATORY in
//!   the merged type iff it is present in every instance of every shard.
//! * **Histogram and cardinality merging** — [`TypeAccum::merge`] folds
//!   the per-type statistics; data types, constraints, and cardinalities
//!   are then re-derived from the merged accumulators, never averaged
//!   from per-shard summaries.
//! * **Deterministic renumbering** — input types are folded in a canonical
//!   order and the merged state is renumbered canonically, so the result
//!   is bit-identical regardless of shard order or shard count.
//!
//! [`discover_sharded`] builds on this: partition the graph with
//! [`pg_store::split_batches`], run independent discovery sessions on
//! worker threads, and merge. With full-scan data-type inference (the
//! default), the merged schema's [`crate::serialize::content_hash`] equals
//! single-node discovery's on label-clean inputs — the
//! `merge_equivalence` suite proves this property-based; sampled
//! data-type inference draws from a sequential RNG whose stream depends
//! on type order, so only the full-scan mode carries the bit-equality
//! guarantee.

use crate::cardinality::compute_cardinalities;
use crate::cluster::{EdgeCluster, NodeCluster};
use crate::config::HiveConfig;
use crate::constraints::infer_property_constraints;
use crate::datatypes::infer_datatypes;
use crate::extract::{integrate, Cluster, MergeOptions};
use crate::pipeline::{DiscoveryResult, PgHive};
use crate::serialize::{edge_line, node_line};
use crate::state::{
    Accums, DiscoveryState, DtypeHist, EdgeTypeAccum, Kind, NodeTypeAccum, Sketch, TypeAccum,
};
use pg_model::{
    Cardinality, DataType, Edge, EdgeType, Node, NodeType, Presence, PropertyGraph, PropertySpec,
    SchemaGraph, SchemaType, Symbol, TypeId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Salt applied to the config seed before [`pg_store::split_batches`], so
/// shard partitioning and any user-level batch splitting with the same
/// seed stay decorrelated.
pub const SHARD_SPLIT_SALT: u64 = 0xd15c0;

/// Why a merge could not run. Merging is total on non-empty input of one
/// sketch shape — the only failures are structural misuse, never data
/// content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// An empty list of schemas/states has no well-defined merge (the
    /// identity element exists, but callers passing nothing almost always
    /// hold a bug — return an error instead of inventing an empty schema).
    EmptyInput,
    /// `discover_sharded` was asked for zero shards.
    ZeroShards,
    /// Sketched accumulators disagree on sketch size or seed (with each
    /// other, with the merging session's stream configuration, or with
    /// their own declared parameters). A union of such sketches means
    /// nothing, so nothing was merged.
    SketchMismatch,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::EmptyInput => write!(f, "cannot merge an empty list of schemas"),
            MergeError::ZeroShards => write!(f, "shard count must be positive"),
            MergeError::SketchMismatch => write!(
                f,
                "sketched states differ in sketch size or seed; \
                 merge only states discovered with the same --seed"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// A serializable snapshot of one shard's discovery state: the schema plus
/// the per-type accumulators, with map keys flattened to sorted pairs so
/// the JSON round-trips (`TypeId` map keys do not). This is the exchange
/// format of the `pg-hive merge` CLI and `POST /sessions/{id}/merge` —
/// unlike a bare [`SchemaGraph`], it carries enough statistics to
/// reproduce global constraints, data types, and cardinalities exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardState {
    /// The shard's inferred schema.
    pub schema: SchemaGraph,
    /// Node accumulators as `(type id, accumulator)` pairs, sorted by id.
    pub node_accums: Vec<(TypeId, NodeTypeAccum)>,
    /// Edge accumulators as `(type id, accumulator)` pairs, sorted by id.
    pub edge_accums: Vec<(TypeId, EdgeTypeAccum)>,
}

impl ShardState {
    /// Snapshot a discovery state.
    pub fn from_state(state: &DiscoveryState) -> ShardState {
        ShardState {
            schema: state.schema.clone(),
            node_accums: sorted_accums(&state.node_accums),
            edge_accums: sorted_accums(&state.edge_accums),
        }
    }

    /// Rebuild the discovery state.
    pub fn into_state(self) -> DiscoveryState {
        DiscoveryState {
            schema: self.schema,
            node_accums: self.node_accums.into_iter().collect(),
            edge_accums: self.edge_accums.into_iter().collect(),
        }
    }
}

/// Which of its two input forms a merge input arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeInput {
    /// A [`ShardState`], as `pg-hive discover --state-out` writes it.
    ShardState,
    /// A bare [`SchemaGraph`].
    Schema,
}

impl fmt::Display for MergeInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MergeInput::ShardState => "shard_state",
            MergeInput::Schema => "schema",
        })
    }
}

/// Read one merge input — the CLI's `merge` operands and the body of
/// `POST /sessions/{id}/merge` alike. A shard state (schema +
/// accumulators) merges exactly; a bare schema is lifted by
/// [`schema_to_state`] and merges under the pessimistic reconstruction
/// algebra. The two formats have disjoint required fields, so trying
/// both is unambiguous.
pub fn parse(json: &str) -> Result<(DiscoveryState, MergeInput), String> {
    if let Ok(shard) = serde_json::from_str::<ShardState>(json) {
        return Ok((shard.into_state(), MergeInput::ShardState));
    }
    match serde_json::from_str::<SchemaGraph>(json) {
        Ok(schema) => Ok((schema_to_state(&schema), MergeInput::Schema)),
        Err(e) => Err(format!("neither shard-state nor schema JSON: {e}")),
    }
}

/// Merge per-shard discovery states into one canonical state.
///
/// Uses `config` for the Algorithm 2 alignment knobs (θ, similarity,
/// endpoint awareness) and for post-processing (constraints, data types,
/// cardinalities — recomputed from the merged accumulators when
/// `config.post_processing` is set). Errors on an empty input list.
pub fn merge_states(
    states: &[DiscoveryState],
    config: &HiveConfig,
) -> Result<DiscoveryState, MergeError> {
    if states.is_empty() {
        return Err(MergeError::EmptyInput);
    }
    let mut state = DiscoveryState::new();
    fold_states(&mut state, states, config)?;
    let mut state = canonicalize(state);
    if config.post_processing {
        infer_property_constraints(&mut state);
        infer_datatypes(&mut state, config.datatype_sampling, config.seed);
        compute_cardinalities(&mut state);
    }
    Ok(state)
}

/// Merge bare schemas (no accumulators) with default alignment settings.
///
/// Statistics are reconstructed from each schema's own claims
/// (`instance_count`, presence flags, data types, cardinalities), so the
/// merged constraints follow the pessimistic algebra: a key stays
/// MANDATORY only if every contributing type with instances declares it
/// mandatory; data types join on the lattice; cardinalities take the
/// per-component maxima (an observed floor, not a recomputed global —
/// use [`ShardState`]s / [`merge_states`] when exact global statistics
/// matter). Unknown presence is normalized to OPTIONAL.
pub fn merge_schemas(schemas: &[SchemaGraph]) -> Result<SchemaGraph, MergeError> {
    merge_schemas_with(schemas, &HiveConfig::default())
}

/// [`merge_schemas`] with explicit alignment/post-processing settings.
pub fn merge_schemas_with(
    schemas: &[SchemaGraph],
    config: &HiveConfig,
) -> Result<SchemaGraph, MergeError> {
    if schemas.is_empty() {
        return Err(MergeError::EmptyInput);
    }
    let states: Vec<DiscoveryState> = schemas.iter().map(schema_to_state).collect();
    Ok(merge_states(&states, config)?.schema)
}

/// Lift a bare schema into a discovery state by synthesizing the
/// accumulators its specs imply (see [`merge_schemas`] for the algebra).
pub fn schema_to_state(schema: &SchemaGraph) -> DiscoveryState {
    let mut state = DiscoveryState {
        schema: schema.clone(),
        ..DiscoveryState::default()
    };
    for t in &schema.node_types {
        let accum = synthetic_accum(t.instance_count, &t.properties, None);
        state.node_accums.insert(t.id, accum);
    }
    for t in &schema.edge_types {
        let accum = synthetic_accum(t.instance_count, &t.properties, t.cardinality);
        state.edge_accums.insert(t.id, accum);
    }
    state
}

/// Shard-parallel discovery: partition `graph` into `n_shards` via
/// [`pg_store::split_batches`] (seeded with `config.seed ^
/// SHARD_SPLIT_SALT`), run an independent discovery session per shard on
/// its own worker thread, and [`merge_states`] the results.
///
/// Edge endpoint labels are resolved against the full graph before
/// partitioning, so shards see the same records a single-node run would.
/// With the default full-scan data-type inference the merged schema is
/// content-hash-equal to single-node discovery whenever type alignment is
/// unambiguous (in particular on label-clean graphs); the
/// `merge_equivalence` suite pins this down.
pub fn discover_sharded(
    graph: &PropertyGraph,
    n_shards: usize,
    config: &HiveConfig,
) -> Result<DiscoveryResult, MergeError> {
    if n_shards == 0 {
        return Err(MergeError::ZeroShards);
    }
    let batches = pg_store::split_batches(graph, n_shards, config.seed ^ SHARD_SPLIT_SALT);
    let hive = PgHive::new(config.clone());
    let results: Vec<DiscoveryResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .iter()
            .map(|batch| {
                let hive = &hive;
                scope.spawn(move || hive.discover(&batch.nodes, &batch.edges))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard discovery worker panicked"))
            .collect()
    });
    let mut timings = Vec::new();
    let mut states = Vec::with_capacity(results.len());
    for r in results {
        timings.extend(r.timings);
        states.push(r.state);
    }
    let state = merge_states(&states, config)?;
    Ok(DiscoveryResult {
        schema: state.schema.clone(),
        state,
        node_params: None,
        edge_params: None,
        timings,
    })
}

/// Fold `foreign` states into a live `state` *without* renumbering:
/// existing type ids survive and every foreign type re-enters
/// Algorithm 2 as a cluster, in a canonical input order — integration
/// decisions depend only on the multiset of foreign types, never on the
/// order or grouping of the list. Post-processing is the caller's job.
/// Refuses, before touching `state`, sketches that could not merge.
pub(crate) fn fold_states(
    state: &mut DiscoveryState,
    foreign: &[DiscoveryState],
    config: &HiveConfig,
) -> Result<(), MergeError> {
    let opts = MergeOptions::from_config(config);
    // Every sketch must be well formed and share one parameter set: the
    // config's in stream mode, else the first one met.
    let mut expected = opts.stream;
    for s in std::iter::once(&*state).chain(foreign) {
        let nodes = sketches::<Node>(s).map(|sk| (sk.params, sk.well_formed()));
        let edges = sketches::<Edge>(s).map(|sk| (sk.params, sk.well_formed()));
        for (params, well_formed) in nodes.chain(edges) {
            if !well_formed || *expected.get_or_insert(params) != params {
                return Err(MergeError::SketchMismatch);
            }
        }
    }
    let nodes = sorted_clusters::<Node, _>(foreign, node_cluster, node_cluster_key);
    integrate(state, nodes, opts);
    let edges = sorted_clusters::<Edge, _>(foreign, edge_cluster, edge_cluster_key);
    integrate(state, edges, opts);
    Ok(())
}

fn sketches<K: Kind>(state: &DiscoveryState) -> impl Iterator<Item = &Sketch<K>> {
    K::view(state).1.values().filter_map(TypeAccum::sketch)
}

/// Re-express every type of one kind as an Algorithm 2 input cluster
/// (`cluster` is handed the real accumulator when the state has one),
/// sorted by `key`.
fn sorted_clusters<K: Kind, C>(
    states: &[DiscoveryState],
    cluster: fn(&K::Type, Option<TypeAccum<K>>) -> C,
    key: fn(&C) -> String,
) -> Vec<C> {
    let mut clusters = Vec::new();
    for state in states {
        let (types, accums) = K::view(state);
        clusters.extend(
            types
                .iter()
                .map(|t| cluster(t, accums.get(&t.id()).cloned())),
        );
    }
    clusters.sort_by_cached_key(key);
    clusters
}

fn node_cluster(t: &NodeType, accum: Option<NodeTypeAccum>) -> NodeCluster {
    NodeCluster {
        labels: t.labels.clone(),
        keys: t.key_set(),
        accum: accum.unwrap_or_else(|| synthetic_accum(t.instance_count, &t.properties, None)),
    }
}

fn edge_cluster(t: &EdgeType, accum: Option<EdgeTypeAccum>) -> EdgeCluster {
    EdgeCluster {
        labels: t.labels.clone(),
        keys: t.key_set(),
        src_labels: t.src_labels.clone(),
        tgt_labels: t.tgt_labels.clone(),
        accum: accum
            .unwrap_or_else(|| synthetic_accum(t.instance_count, &t.properties, t.cardinality)),
    }
}

/// A state's accumulators of one kind as `(type id, accumulator)` pairs,
/// sorted by id — their form in shard states and checkpoints.
pub(crate) fn sorted_accums<K: Kind>(accums: &Accums<K>) -> Vec<(TypeId, TypeAccum<K>)> {
    let mut pairs: Vec<_> = accums.iter().collect();
    pairs.sort_by_key(|(id, _)| **id);
    pairs
        .into_iter()
        .map(|(id, acc)| (*id, acc.clone()))
        .collect()
}

/// Renumber a state canonically: types sorted by their canonical-form
/// line (the same rendering [`crate::serialize::canonical_form`] hashes),
/// ids reassigned densely in that order — node types first — and exact
/// member and endpoint lists sorted. Two states describing the same
/// types become bit-identical.
fn canonicalize(mut state: DiscoveryState) -> DiscoveryState {
    let mut out = DiscoveryState::new();
    renumber::<Node>(&mut state, &mut out, node_line);
    renumber::<Edge>(&mut state, &mut out, edge_line);
    out
}

fn renumber<K: Kind>(
    from: &mut DiscoveryState,
    out: &mut DiscoveryState,
    line: fn(&K::Type) -> String,
) {
    let (types, accums) = K::split(from);
    types.sort_by_cached_key(line);
    for t in types.drain(..) {
        let mut acc = accums.remove(&t.id()).unwrap_or_default();
        acc.sort_exact();
        let id = K::push(&mut out.schema, t);
        K::split(out).1.insert(id, acc);
    }
}

/// The accumulator a bare type implies: MANDATORY keys present on every
/// instance, OPTIONAL (or unknown) keys on all but one — enough for
/// constraint re-inference to reproduce the declared presence whenever
/// `count > 0`. Declared data types become single-slot histograms so the
/// lattice join over shards matches [`pg_model::DataType::join`]. No
/// endpoint pairs exist to recompute an edge type's cardinality from, so
/// the declared one is carried as the accumulator's `card_floor`.
fn synthetic_accum<K: Kind>(
    count: u64,
    properties: &BTreeMap<Symbol, PropertySpec>,
    card_floor: Option<Cardinality>,
) -> TypeAccum<K> {
    let mut acc = TypeAccum {
        count,
        card_floor,
        ..TypeAccum::default()
    };
    for (key, spec) in properties {
        let present = match spec.presence {
            Some(Presence::Mandatory) => count,
            Some(Presence::Optional) | None => count.saturating_sub(1),
        };
        acc.key_present.insert(key.clone(), present);
        if let Some(dt) = spec.datatype {
            let mut hist = DtypeHist::default();
            // At least one observation even for never-present optional
            // keys, so the declared data type survives re-inference.
            hist.observe_n(dt, present.max(1));
            acc.dtype_hist.insert(key.clone(), hist);
        }
    }
    acc
}

/// Total order over node clusters: structural identity first (labels,
/// keys), then the full accumulator fingerprint so even statistically
/// distinct twins order deterministically.
fn node_cluster_key(c: &NodeCluster) -> String {
    cluster_key(c, String::new())
}

/// Total order over edge clusters (labels, endpoints, keys, statistics).
fn edge_cluster_key(c: &EdgeCluster) -> String {
    let mut s = cluster_key(c, format!("{}\u{1f}{}\u{1f}", c.src_labels, c.tgt_labels));
    let _ = write!(s, "\u{1f}{}", c.accum.endpoints().len());
    if let Some(card) = c.accum.card_floor {
        let _ = write!(s, "\u{1f}{}:{}", card.max_out, card.max_in);
    }
    s
}

/// `labels`, `ends`, the keys, then count, presence counts and data-type
/// histograms in key order.
fn cluster_key<C: Cluster>(c: &C, ends: String) -> String {
    let (labels, keys, accum) = c.parts();
    let mut s = format!("{labels}\u{1f}{ends}");
    for k in keys {
        let _ = write!(s, "{k},");
    }
    let _ = write!(s, "\u{1f}{}", accum.count);
    let mut present: Vec<(&Symbol, &u64)> = accum.key_present.iter().collect();
    present.sort();
    for (k, n) in present {
        let _ = write!(s, "|{k}:{n}");
    }
    let mut hists: Vec<(&Symbol, &DtypeHist)> = accum.dtype_hist.iter().collect();
    hists.sort_by_key(|(k, _)| *k);
    for (k, hist) in hists {
        let _ = write!(s, "|{k}~");
        for t in DataType::ALL {
            let _ = write!(s, "{},", hist.count(t));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::content_hash;
    use pg_model::{sym, Cardinality, LabelSet, PropertySpec};

    fn labeled_type(labels: &[&str], count: u64, keys: &[(&str, DataType, Presence)]) -> NodeType {
        let mut t = NodeType::new(TypeId(0), LabelSet::from_iter(labels.iter().copied()), []);
        t.instance_count = count;
        for (k, dt, p) in keys {
            t.properties.insert(
                sym(k),
                PropertySpec {
                    datatype: Some(*dt),
                    presence: Some(*p),
                },
            );
        }
        t
    }

    #[test]
    fn empty_input_is_a_typed_error() {
        assert_eq!(merge_schemas(&[]), Err(MergeError::EmptyInput));
        assert_eq!(
            merge_states(&[], &HiveConfig::default()).map(|_| ()),
            Err(MergeError::EmptyInput)
        );
        assert!(MergeError::EmptyInput.to_string().contains("empty"));
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let g = PropertyGraph::new();
        let err = discover_sharded(&g, 0, &HiveConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, MergeError::ZeroShards);
    }

    #[test]
    fn sketches_of_another_size_or_seed_are_refused() {
        let mut g = PropertyGraph::new();
        for i in 0..40u64 {
            g.add_node(pg_model::Node::new(i, LabelSet::single("Org")).with_prop("url", i as i64))
                .unwrap();
        }
        let sketched = |seed| {
            let config = HiveConfig {
                seed,
                ..sketched_config()
            };
            PgHive::new(config).discover_graph(&g).state
        };
        let (a, b) = (sketched(1), sketched(2));
        let exact = HiveConfig::default();
        assert!(merge_states(&[a.clone(), a.clone()], &exact).is_ok());
        let refused = Err(MergeError::SketchMismatch);
        assert_eq!(merge_states(&[a.clone(), b], &exact).map(|_| ()), refused);

        // A stream-mode merge builds sketches of its own seed, so those
        // decide.
        let stream7 = HiveConfig {
            seed: 7,
            ..sketched_config()
        };
        assert_eq!(
            merge_states(std::slice::from_ref(&a), &stream7).map(|_| ()),
            refused
        );

        // A sketch whose size disagrees with its own declared params.
        let mut bad = a.clone();
        let accum = bad.node_accums.values_mut().next().expect("one type");
        let params = accum.sketch().expect("stream mode sketches").params;
        accum.ensure_sketched(params).members =
            crate::sketch::DistinctSketch::new(params.distinct_k * 2, params.seed);
        assert_eq!(merge_states(&[a, bad], &exact).map(|_| ()), refused);
    }

    fn sketched_config() -> HiveConfig {
        HiveConfig {
            stream: Some(crate::config::StreamConfig::default()),
            ..HiveConfig::default()
        }
    }

    #[test]
    fn identity_merge_with_empty_schema() {
        let mut s = SchemaGraph::new();
        s.push_node_type(labeled_type(
            &["Person"],
            3,
            &[("name", DataType::Str, Presence::Mandatory)],
        ));
        let merged = merge_schemas(&[s.clone(), SchemaGraph::new()]).unwrap();
        let alone = merge_schemas(&[s]).unwrap();
        assert_eq!(merged, alone);
        assert_eq!(content_hash(&merged), content_hash(&alone));
    }

    #[test]
    fn mandatory_key_demotes_when_a_shard_lacks_it() {
        let mut a = SchemaGraph::new();
        a.push_node_type(labeled_type(
            &["Person"],
            4,
            &[
                ("name", DataType::Str, Presence::Mandatory),
                ("age", DataType::Int, Presence::Mandatory),
            ],
        ));
        let mut b = SchemaGraph::new();
        b.push_node_type(labeled_type(
            &["Person"],
            2,
            &[("name", DataType::Str, Presence::Mandatory)],
        ));
        let merged = merge_schemas(&[a, b]).unwrap();
        assert_eq!(merged.node_types.len(), 1);
        let t = &merged.node_types[0];
        assert_eq!(t.instance_count, 6);
        assert_eq!(
            t.properties[&sym("name")].presence,
            Some(Presence::Mandatory),
            "present in all 6 instances"
        );
        assert_eq!(
            t.properties[&sym("age")].presence,
            Some(Presence::Optional),
            "absent from shard b's instances"
        );
    }

    #[test]
    fn datatypes_join_on_the_lattice() {
        let mut a = SchemaGraph::new();
        a.push_node_type(labeled_type(
            &["M"],
            1,
            &[("x", DataType::Int, Presence::Mandatory)],
        ));
        let mut b = SchemaGraph::new();
        b.push_node_type(labeled_type(
            &["M"],
            1,
            &[("x", DataType::Float, Presence::Mandatory)],
        ));
        let merged = merge_schemas(&[a, b]).unwrap();
        assert_eq!(
            merged.node_types[0].properties[&sym("x")].datatype,
            Some(DataType::Float),
            "int ⊔ float = float"
        );
    }

    #[test]
    fn edge_cardinality_floor_survives_schema_merge() {
        let mk = |max_out, max_in| {
            let mut s = SchemaGraph::new();
            let person = labeled_type(&["Person"], 2, &[]);
            let labels = person.labels.clone();
            s.push_node_type(person);
            let mut e = EdgeType::new(
                TypeId(0),
                LabelSet::single("KNOWS"),
                [],
                labels.clone(),
                labels,
            );
            e.instance_count = 2;
            e.cardinality = Some(Cardinality { max_out, max_in });
            s.push_edge_type(e);
            s
        };
        let merged = merge_schemas(&[mk(1, 3), mk(2, 1)]).unwrap();
        assert_eq!(merged.edge_types.len(), 1);
        assert_eq!(
            merged.edge_types[0].cardinality,
            Some(Cardinality {
                max_out: 2,
                max_in: 3
            }),
            "per-component maxima"
        );
    }

    #[test]
    fn merge_is_invariant_under_input_order() {
        let mut a = SchemaGraph::new();
        a.push_node_type(labeled_type(
            &["Person"],
            4,
            &[("name", DataType::Str, Presence::Mandatory)],
        ));
        let mut b = SchemaGraph::new();
        b.push_node_type(labeled_type(
            &["Org"],
            2,
            &[("url", DataType::Str, Presence::Optional)],
        ));
        let ab = merge_schemas(&[a.clone(), b.clone()]).unwrap();
        let ba = merge_schemas(&[b, a]).unwrap();
        assert_eq!(ab, ba, "bit-identical, ids included");
    }
}
